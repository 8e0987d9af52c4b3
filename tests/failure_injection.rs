//! Failure-injection tests: errors at every stage of trigger processing
//! must leave the store in a consistent, predictable state.

use pg_memgraph::MemgraphDb;
use pg_triggers::{EngineConfig, Session, TriggerError};

fn count(s: &mut Session, label: &str) -> i64 {
    s.run(&format!("MATCH (n:{label}) RETURN count(*) AS n"))
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap()
}

#[test]
fn runtime_error_in_after_trigger_rolls_statement_back() {
    let mut s = Session::new();
    // the trigger statement has a type error at run time (prop access on int)
    s.install(
        "CREATE TRIGGER broken AFTER CREATE ON 'P' FOR EACH NODE
         BEGIN MATCH (x:P) WITH 1 AS one SET one.prop = 2 END",
    )
    .unwrap();
    let err = s.run("CREATE (:P)").unwrap_err();
    assert!(matches!(err, TriggerError::Cypher(_)), "{err}");
    assert_eq!(count(&mut s, "P"), 0);
}

#[test]
fn unbound_variable_in_condition_rolls_back() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER broken AFTER CREATE ON 'P' FOR EACH NODE
         WHEN ghost.x > 1
         BEGIN CREATE (:X) END",
    )
    .unwrap();
    let err = s.run("CREATE (:P)").unwrap_err();
    assert!(matches!(
        err,
        TriggerError::Cypher(pg_cypher::CypherError::UnboundVariable(_))
    ));
    assert_eq!(count(&mut s, "P"), 0);
}

#[test]
fn failure_deep_in_cascade_unwinds_everything() {
    let mut s = Session::new();
    s.install("CREATE TRIGGER c1 AFTER CREATE ON 'A' FOR EACH NODE BEGIN CREATE (:B) END")
        .unwrap();
    s.install("CREATE TRIGGER c2 AFTER CREATE ON 'B' FOR EACH NODE BEGIN CREATE (:C) END")
        .unwrap();
    s.install("CREATE TRIGGER c3 AFTER CREATE ON 'C' FOR EACH NODE BEGIN ABORT 'deep failure' END")
        .unwrap();
    let err = s.run("CREATE (:A)").unwrap_err();
    assert!(matches!(
        err,
        TriggerError::Cypher(pg_cypher::CypherError::Aborted(_))
    ));
    for l in ["A", "B", "C"] {
        assert_eq!(count(&mut s, l), 0, "{l} survived a failed cascade");
    }
}

#[test]
fn partial_tx_survives_failed_statement_then_commits() {
    let mut s = Session::new();
    s.install("CREATE TRIGGER veto AFTER CREATE ON 'Bad' FOR EACH NODE BEGIN ABORT 'nope' END")
        .unwrap();
    s.begin().unwrap();
    s.run("CREATE (:Good {i: 1})").unwrap();
    assert!(s.run("CREATE (:Bad)").is_err());
    s.run("CREATE (:Good {i: 2})").unwrap();
    s.commit().unwrap();
    assert_eq!(count(&mut s, "Good"), 2);
    assert_eq!(count(&mut s, "Bad"), 0);
}

#[test]
fn detached_failures_are_isolated_and_reported() {
    let mut s = Session::new();
    s.install("CREATE TRIGGER ok DETACHED CREATE ON 'P' FOR ALL NODES BEGIN CREATE (:Audit) END")
        .unwrap();
    s.install(
        "CREATE TRIGGER bad DETACHED CREATE ON 'P' FOR ALL NODES BEGIN ABORT 'detached boom' END",
    )
    .unwrap();
    s.run("CREATE (:P)").unwrap();
    // the good detached trigger ran, the bad one is recorded, main tx intact
    assert_eq!(s.detached_errors().len(), 1);
    assert_eq!(s.detached_errors()[0].0, "bad");
    assert_eq!(count(&mut s, "P"), 1);
    assert_eq!(count(&mut s, "Audit"), 1);
}

#[test]
fn failed_detached_tx_does_not_leak_partial_writes() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER partial DETACHED CREATE ON 'P' FOR ALL NODES
         BEGIN CREATE (:Leak) WITH 1 AS one ABORT 'after writing' END",
    )
    .unwrap();
    s.run("CREATE (:P)").unwrap();
    assert_eq!(s.detached_errors().len(), 1);
    // the Leak node was rolled back with the autonomous transaction
    assert_eq!(count(&mut s, "Leak"), 0);
}

#[test]
fn write_in_read_only_condition_is_impossible() {
    // conditions execute against a read-only target: even a hand-built
    // spec with an updating condition fails cleanly at run time (and
    // install-time validation already rejects it).
    let mut s = Session::new();
    let mut spec = match pg_triggers::parse_trigger_ddl(
        "CREATE TRIGGER t AFTER CREATE ON 'P' FOR EACH NODE BEGIN CREATE (:X) END",
    )
    .unwrap()
    {
        pg_triggers::DdlStatement::CreateTrigger(sp) => sp,
        _ => unreachable!(),
    };
    let evil = pg_cypher::parse_query("CREATE (:Evil) RETURN 1").unwrap();
    spec.condition = Some(std::sync::Arc::new(evil.into()));
    assert!(s.install_spec(spec).is_err());
}

#[test]
fn memgraph_before_commit_failure_rolls_back_tx() {
    let mut db = MemgraphDb::new();
    db.create_trigger(
        "CREATE TRIGGER veto ON () CREATE BEFORE COMMIT EXECUTE
         UNWIND createdVertices AS v ABORT 'no vertices today'",
    )
    .unwrap();
    assert!(db.run_tx(&["CREATE (:P)"]).is_err());
    let n = db
        .query("MATCH (p:P) RETURN count(*) AS n")
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap();
    assert_eq!(n, 0);
}

#[test]
fn zero_effect_statements_fire_nothing() {
    let mut s = Session::new();
    s.install("CREATE TRIGGER t AFTER CREATE ON 'P' FOR EACH NODE BEGIN CREATE (:X) END")
        .unwrap();
    s.run("MATCH (n:Nothing) SET n.x = 1").unwrap(); // matches nothing
    s.run("RETURN 1 + 1 AS two").unwrap(); // pure read
    assert_eq!(s.stats().fired, 0);
    assert_eq!(count(&mut s, "X"), 0);
}

#[test]
fn net_zero_delta_fires_nothing() {
    // create + delete within one statement: the normalized delta is empty
    let mut s = Session::new();
    s.install("CREATE TRIGGER t AFTER CREATE ON 'P' FOR EACH NODE BEGIN CREATE (:X) END")
        .unwrap();
    s.install("CREATE TRIGGER d AFTER DELETE ON 'P' FOR EACH NODE BEGIN CREATE (:Y) END")
        .unwrap();
    s.run("CREATE (p:P) WITH p DETACH DELETE p").unwrap();
    assert_eq!(
        count(&mut s, "X"),
        0,
        "create trigger fired on net-zero delta"
    );
    assert_eq!(
        count(&mut s, "Y"),
        0,
        "delete trigger fired on net-zero delta"
    );
}

#[test]
fn recursion_limit_respects_oncommit_cascades_too() {
    let mut s = Session::with_config(EngineConfig {
        max_cascade_depth: 4,
        ..EngineConfig::default()
    });
    // ONCOMMIT statement kicks off an AFTER cascade that overruns the limit
    s.install("CREATE TRIGGER a AFTER CREATE ON 'Spin' FOR EACH NODE BEGIN CREATE (:Spin) END")
        .unwrap();
    s.install("CREATE TRIGGER oc ONCOMMIT CREATE ON 'Seed' FOR EACH NODE BEGIN CREATE (:Spin) END")
        .unwrap();
    let err = s.run("CREATE (:Seed)").unwrap_err();
    assert!(matches!(err, TriggerError::RecursionLimit { .. }), "{err}");
    assert_eq!(count(&mut s, "Seed"), 0);
    assert_eq!(count(&mut s, "Spin"), 0);
}
