//! Integration tests for the PG-Trigger execution semantics (paper §4.2).

use pg_graph::Value;
use pg_triggers::{EngineConfig, OrderPolicy, Session, TriggerError};

fn count(session: &mut Session, label: &str) -> i64 {
    let q = format!("MATCH (n:{label}) RETURN count(*) AS n");
    session
        .run(&q)
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap()
}

// ---------------------------------------------------------------------
// Action times
// ---------------------------------------------------------------------

#[test]
fn after_trigger_fires_per_created_node() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER log AFTER CREATE ON 'P' FOR EACH NODE
         BEGIN CREATE (:Log {of: NEW.name}) END",
    )
    .unwrap();
    s.run("CREATE (:P {name: 'a'}), (:P {name: 'b'}), (:Q {name: 'c'})")
        .unwrap();
    assert_eq!(count(&mut s, "Log"), 2);
    let out = s.run("MATCH (l:Log) RETURN l.of AS o ORDER BY o").unwrap();
    assert_eq!(out.rows, vec![vec![Value::str("a")], vec![Value::str("b")]]);
}

#[test]
fn before_trigger_conditions_new_state() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER stamp BEFORE CREATE ON 'P' FOR EACH NODE
         BEGIN SET NEW.audited = true END",
    )
    .unwrap();
    s.run("CREATE (:P {name: 'x'})").unwrap();
    let out = s.run("MATCH (p:P) RETURN p.audited AS a").unwrap();
    assert_eq!(out.rows, vec![vec![Value::Bool(true)]]);
}

#[test]
fn before_trigger_cannot_mutate_other_items() {
    let mut s = Session::new();
    s.run("CREATE (:Bystander {v: 1})").unwrap();
    s.install(
        "CREATE TRIGGER sneaky BEFORE CREATE ON 'P' FOR EACH NODE
         BEGIN MATCH (b:Bystander) SET b.v = 99 END",
    )
    .unwrap();
    let err = s.run("CREATE (:P)").unwrap_err();
    assert!(matches!(err, TriggerError::Store(_)), "got {err:?}");
    // statement rolled back entirely: no P created, bystander untouched
    assert_eq!(count(&mut s, "P"), 0);
    let out = s.run("MATCH (b:Bystander) RETURN b.v AS v").unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(1)]]);
}

#[test]
fn before_trigger_abort_vetoes_statement() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER no_negative BEFORE SET ON 'Hospital'.'icuBeds' FOR EACH NODE
         WHEN NEW.icuBeds < 0
         BEGIN ABORT 'icuBeds must be non-negative' END",
    )
    .unwrap();
    s.run("CREATE (:Hospital {name: 'Sacco', icuBeds: 10})")
        .unwrap();
    let err = s.run("MATCH (h:Hospital) SET h.icuBeds = -5").unwrap_err();
    assert!(matches!(
        err,
        TriggerError::Cypher(pg_cypher::CypherError::Aborted(_))
    ));
    let out = s.run("MATCH (h:Hospital) RETURN h.icuBeds AS b").unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(10)]]); // rolled back
                                                      // a legal update passes
    s.run("MATCH (h:Hospital) SET h.icuBeds = 20").unwrap();
    let out = s.run("MATCH (h:Hospital) RETURN h.icuBeds AS b").unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(20)]]);
}

#[test]
fn before_condition_sees_pre_statement_state() {
    let mut s = Session::new();
    // Condition counts P nodes in the *pre* state: fires only when the
    // pre-state had none (i.e. for the first insertion statement).
    s.install(
        "CREATE TRIGGER first_only BEFORE CREATE ON 'P' FOR EACH NODE
         WHEN MATCH (e:P) WITH count(e) AS existing WHERE existing = 0
         BEGIN SET NEW.first = true END",
    )
    .unwrap();
    s.run("CREATE (:P {name: 'a'})").unwrap();
    s.run("CREATE (:P {name: 'b'})").unwrap();
    let out = s
        .run("MATCH (p:P) RETURN p.name AS n, p.first AS f ORDER BY n")
        .unwrap();
    assert_eq!(
        out.rows,
        vec![
            vec![Value::str("a"), Value::Bool(true)],
            vec![Value::str("b"), Value::Null],
        ]
    );
}

#[test]
fn later_before_trigger_old_is_the_pre_statement_state() {
    // §4.2: OLD is the state before the activating statement — not a state
    // an earlier BEFORE trigger of the same statement already conditioned.
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER t1 BEFORE SET ON 'L'.'p' FOR EACH NODE
         BEGIN SET NEW.q = 7 END",
    )
    .unwrap();
    s.install(
        "CREATE TRIGGER t2 BEFORE SET ON 'L'.'p' FOR EACH NODE
         BEGIN SET NEW.oldq = coalesce(OLD.q, -1) END",
    )
    .unwrap();
    s.run("CREATE (:L {p: 1})").unwrap();
    s.run("MATCH (n:L) SET n.p = 2").unwrap();
    let out = s
        .run("MATCH (n:L) RETURN n.p AS p, n.q AS q, n.oldq AS oldq")
        .unwrap();
    assert_eq!(
        out.rows,
        vec![vec![Value::Int(2), Value::Int(7), Value::Int(-1)]]
    );
}

#[test]
fn later_before_condition_sees_earlier_conditioning_of_new() {
    // Sequencing is unchanged: t2's condition is considered after t1's
    // statement ran, so it reads the q that t1 put on NEW.
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER t1 BEFORE SET ON 'L'.'p' FOR EACH NODE
         BEGIN SET NEW.q = 7 END",
    )
    .unwrap();
    s.install(
        "CREATE TRIGGER t2 BEFORE SET ON 'L'.'p' FOR EACH NODE
         WHEN NEW.q = 7
         BEGIN SET NEW.saw_q = true END",
    )
    .unwrap();
    s.run("CREATE (:L {p: 1})").unwrap();
    s.run("MATCH (n:L) SET n.p = 2").unwrap();
    let out = s.run("MATCH (n:L) RETURN n.saw_q AS a").unwrap();
    assert_eq!(out.rows, vec![vec![Value::Bool(true)]]);
    assert_eq!(s.stats().fired, 2);
    assert_eq!(s.stats().suppressed, 0);
}

#[test]
fn oncommit_runs_on_cumulative_tx_delta() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER tally ONCOMMIT CREATE ON 'P' FOR ALL NODES
         BEGIN CREATE (:CommitLog {n: size(NEWNODES)}) END",
    )
    .unwrap();
    s.begin().unwrap();
    s.run("CREATE (:P)").unwrap();
    s.run("CREATE (:P), (:P)").unwrap();
    // nothing yet: ONCOMMIT waits for the commit point
    assert_eq!(count(&mut s, "CommitLog"), 0);
    s.commit().unwrap();
    let out = s.run("MATCH (c:CommitLog) RETURN c.n AS n").unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(3)]]);
}

#[test]
fn oncommit_failure_rolls_back_whole_transaction() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER veto ONCOMMIT CREATE ON 'P' FOR ALL NODES
         WHEN MATCH (p:P) WITH count(p) AS n WHERE n > 2
         BEGIN ABORT 'too many P' END",
    )
    .unwrap();
    s.begin().unwrap();
    s.run("CREATE (:P), (:P), (:P)").unwrap();
    let err = s.commit().unwrap_err();
    assert!(matches!(
        err,
        TriggerError::Cypher(pg_cypher::CypherError::Aborted(_))
    ));
    assert_eq!(count(&mut s, "P"), 0); // everything rolled back

    // two nodes commit fine
    s.begin().unwrap();
    s.run("CREATE (:P), (:P)").unwrap();
    s.commit().unwrap();
    assert_eq!(count(&mut s, "P"), 2);
}

#[test]
fn oncommit_side_effects_iterate_to_fixpoint() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER derive ONCOMMIT CREATE ON 'A' FOR EACH NODE
         BEGIN CREATE (:B) END",
    )
    .unwrap();
    s.install(
        "CREATE TRIGGER derive2 ONCOMMIT CREATE ON 'B' FOR EACH NODE
         BEGIN CREATE (:C) END",
    )
    .unwrap();
    s.run("CREATE (:A)").unwrap();
    // round 1: A→B; round 2: B→C; both inside the same commit
    assert_eq!(count(&mut s, "B"), 1);
    assert_eq!(count(&mut s, "C"), 1);
}

#[test]
fn oncommit_divergence_detected() {
    let mut s = Session::with_config(EngineConfig {
        max_commit_rounds: 4,
        ..EngineConfig::default()
    });
    s.install(
        "CREATE TRIGGER pingpong ONCOMMIT CREATE ON 'A' FOR EACH NODE
         BEGIN CREATE (:A) END",
    )
    .unwrap();
    let err = s.run("CREATE (:A)").unwrap_err();
    assert!(matches!(err, TriggerError::CommitFixpointDiverged { .. }));
    assert_eq!(count(&mut s, "A"), 0); // rolled back
}

#[test]
fn detached_runs_after_commit_in_autonomous_tx() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER audit DETACHED CREATE ON 'P' FOR ALL NODES
         BEGIN CREATE (:Audit {n: size(NEWNODES)}) END",
    )
    .unwrap();
    s.run("CREATE (:P), (:P)").unwrap();
    assert_eq!(count(&mut s, "Audit"), 1);
    let out = s.run("MATCH (a:Audit) RETURN a.n AS n").unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(2)]]);
    assert!(s.detached_errors().is_empty());
}

#[test]
fn detached_failure_does_not_affect_main_tx() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER flaky DETACHED CREATE ON 'P' FOR EACH NODE
         BEGIN ABORT 'detached failure' END",
    )
    .unwrap();
    // main statement succeeds even though the detached trigger fails
    s.run("CREATE (:P)").unwrap();
    assert_eq!(count(&mut s, "P"), 1);
    assert_eq!(s.detached_errors().len(), 1);
    assert_eq!(s.detached_errors()[0].0, "flaky");
}

// ---------------------------------------------------------------------
// Cascading
// ---------------------------------------------------------------------

#[test]
fn after_triggers_cascade() {
    let mut s = Session::new();
    s.install("CREATE TRIGGER t1 AFTER CREATE ON 'A' FOR EACH NODE BEGIN CREATE (:B) END")
        .unwrap();
    s.install("CREATE TRIGGER t2 AFTER CREATE ON 'B' FOR EACH NODE BEGIN CREATE (:C) END")
        .unwrap();
    s.install("CREATE TRIGGER t3 AFTER CREATE ON 'C' FOR EACH NODE BEGIN CREATE (:D) END")
        .unwrap();
    s.run("CREATE (:A)").unwrap();
    for l in ["B", "C", "D"] {
        assert_eq!(count(&mut s, l), 1, "label {l}");
    }
    assert!(s.stats().max_depth_seen >= 2);
}

#[test]
fn cascade_disabled_emulates_apoc_limitation() {
    let mut s = Session::with_config(EngineConfig {
        cascading_enabled: false,
        ..EngineConfig::default()
    });
    s.install("CREATE TRIGGER t1 AFTER CREATE ON 'A' FOR EACH NODE BEGIN CREATE (:B) END")
        .unwrap();
    s.install("CREATE TRIGGER t2 AFTER CREATE ON 'B' FOR EACH NODE BEGIN CREATE (:C) END")
        .unwrap();
    s.run("CREATE (:A)").unwrap();
    assert_eq!(count(&mut s, "B"), 1);
    assert_eq!(count(&mut s, "C"), 0); // the cascade is blocked (§5.1)
}

#[test]
fn recursion_limit_aborts_runaway_cascade() {
    let mut s = Session::with_config(EngineConfig {
        max_cascade_depth: 8,
        ..EngineConfig::default()
    });
    // Self-perpetuating: every Alert creates another Alert.
    s.install(
        "CREATE TRIGGER loops AFTER CREATE ON 'Alert' FOR EACH NODE BEGIN CREATE (:Alert) END",
    )
    .unwrap();
    let err = s.run("CREATE (:Alert)").unwrap_err();
    assert!(matches!(err, TriggerError::RecursionLimit { .. }));
    assert_eq!(count(&mut s, "Alert"), 0); // rolled back entirely
}

#[test]
fn bounded_cascade_terminates_under_limit() {
    // Chain bounded by data: each hop moves to the next node; terminates.
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER hop AFTER SET ON 'N'.'hot' FOR EACH NODE
         WHEN NEW.hot = true
         BEGIN MATCH (NEW)-[:NEXT]->(m:N) WHERE m.hot IS NULL SET m.hot = true END",
    )
    .unwrap();
    s.run(
        "CREATE (:N {i: 0})-[:NEXT]->(:N {i: 1}) WITH 1 AS _
         MATCH (a:N {i: 1}) CREATE (a)-[:NEXT]->(:N {i: 2})",
    )
    .unwrap();
    s.run("MATCH (n:N {i: 0}) SET n.hot = true").unwrap();
    let out = s
        .run("MATCH (n:N) WHERE n.hot = true RETURN count(*) AS c")
        .unwrap();
    assert_eq!(out.single(), Some(&Value::Int(3))); // propagated down the chain
}

// ---------------------------------------------------------------------
// Ordering
// ---------------------------------------------------------------------

#[test]
fn creation_time_order_is_default() {
    let mut s = Session::new();
    // Both triggers append to a trace; zebra installed first must run first.
    s.install(
        "CREATE TRIGGER zebra AFTER CREATE ON 'P' FOR ALL NODES
         BEGIN MATCH (t:Trace) SET t.log = t.log + 'z' END",
    )
    .unwrap();
    s.install(
        "CREATE TRIGGER alpha AFTER CREATE ON 'P' FOR ALL NODES
         BEGIN MATCH (t:Trace) SET t.log = t.log + 'a' END",
    )
    .unwrap();
    s.run("CREATE (:Trace {log: ''})").unwrap();
    s.run("CREATE (:P)").unwrap();
    let out = s.run("MATCH (t:Trace) RETURN t.log AS l").unwrap();
    assert_eq!(out.rows, vec![vec![Value::str("za")]]);
}

#[test]
fn name_order_policy() {
    let mut s = Session::with_config(EngineConfig {
        order: OrderPolicy::Name,
        ..EngineConfig::default()
    });
    s.install(
        "CREATE TRIGGER zebra AFTER CREATE ON 'P' FOR ALL NODES
         BEGIN MATCH (t:Trace) SET t.log = t.log + 'z' END",
    )
    .unwrap();
    s.install(
        "CREATE TRIGGER alpha AFTER CREATE ON 'P' FOR ALL NODES
         BEGIN MATCH (t:Trace) SET t.log = t.log + 'a' END",
    )
    .unwrap();
    s.run("CREATE (:Trace {log: ''})").unwrap();
    s.run("CREATE (:P)").unwrap();
    let out = s.run("MATCH (t:Trace) RETURN t.log AS l").unwrap();
    assert_eq!(out.rows, vec![vec![Value::str("az")]]);
}

// ---------------------------------------------------------------------
// Granularity & transition variables
// ---------------------------------------------------------------------

#[test]
fn for_all_fires_once_per_statement() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER batch AFTER CREATE ON 'P' FOR ALL NODES
         BEGIN CREATE (:BatchLog {n: size(NEWNODES)}) END",
    )
    .unwrap();
    s.run("CREATE (:P), (:P), (:P)").unwrap();
    assert_eq!(count(&mut s, "BatchLog"), 1);
    let out = s.run("MATCH (b:BatchLog) RETURN b.n AS n").unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(3)]]);
}

#[test]
fn old_and_new_in_set_trigger() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER who AFTER SET ON 'Lineage'.'whoDesignation' FOR EACH NODE
         WHEN OLD.whoDesignation <> NEW.whoDesignation
         BEGIN CREATE (:Alert {was: OLD.whoDesignation, now: NEW.whoDesignation}) END",
    )
    .unwrap();
    s.run("CREATE (:Lineage {name: 'B.1.617.2', whoDesignation: 'Indian'})")
        .unwrap();
    s.run("MATCH (l:Lineage) SET l.whoDesignation = 'Delta'")
        .unwrap();
    let out = s
        .run("MATCH (a:Alert) RETURN a.was AS w, a.now AS n")
        .unwrap();
    assert_eq!(
        out.rows,
        vec![vec![Value::str("Indian"), Value::str("Delta")]]
    );
    // same-value set: condition false, no second alert
    s.run("MATCH (l:Lineage) SET l.whoDesignation = 'Delta'")
        .unwrap();
    assert_eq!(count(&mut s, "Alert"), 1);
}

#[test]
fn delete_trigger_reads_old_map() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER obituary AFTER DELETE ON 'P' FOR EACH NODE
         BEGIN CREATE (:Tombstone {name: OLD.name}) END",
    )
    .unwrap();
    s.run("CREATE (:P {name: 'gone'})").unwrap();
    s.run("MATCH (p:P) DETACH DELETE p").unwrap();
    let out = s.run("MATCH (t:Tombstone) RETURN t.name AS n").unwrap();
    assert_eq!(out.rows, vec![vec![Value::str("gone")]]);
}

#[test]
fn relationship_triggers() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER link AFTER CREATE ON 'BelongsTo' FOR EACH RELATIONSHIP
         WHEN MATCH (s:Sequence)-[NEW]-(l:Lineage)
         BEGIN CREATE (:Alert {lineage: l.name}) END",
    )
    .unwrap();
    s.run("CREATE (:Sequence {accession: 'S1'}) CREATE (:Lineage {name: 'Alpha'})")
        .unwrap();
    s.run("MATCH (s:Sequence), (l:Lineage) CREATE (s)-[:BelongsTo]->(l)")
        .unwrap();
    let out = s.run("MATCH (a:Alert) RETURN a.lineage AS l").unwrap();
    assert_eq!(out.rows, vec![vec![Value::str("Alpha")]]);
}

#[test]
fn referencing_aliases_work_end_to_end() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER admitted AFTER CREATE ON 'IcuPatient'
         REFERENCING NEWNODES AS admissions
         FOR ALL NODES
         BEGIN CREATE (:Wave {n: size(admissions)}) END",
    )
    .unwrap();
    s.run("CREATE (:IcuPatient), (:IcuPatient)").unwrap();
    let out = s.run("MATCH (w:Wave) RETURN w.n AS n").unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn label_set_event_trigger() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER flagged AFTER SET ON 'Critical' FOR EACH NODE
         BEGIN CREATE (:Alert {desc: 'node became critical'}) END",
    )
    .unwrap();
    s.run("CREATE (:P {name: 'x'})").unwrap();
    assert_eq!(count(&mut s, "Alert"), 0);
    s.run("MATCH (p:P) SET p:Critical").unwrap();
    assert_eq!(count(&mut s, "Alert"), 1);
    // setting it again is a no-op: no event, no alert
    s.run("MATCH (p:P) SET p:Critical").unwrap();
    assert_eq!(count(&mut s, "Alert"), 1);
}

#[test]
fn remove_property_event_trigger() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER lost AFTER REMOVE ON 'P'.'email' FOR EACH NODE
         BEGIN CREATE (:Alert {was: OLD.email}) END",
    )
    .unwrap();
    s.run("CREATE (:P {email: 'a@b.c'})").unwrap();
    s.run("MATCH (p:P) REMOVE p.email").unwrap();
    let out = s.run("MATCH (a:Alert) RETURN a.was AS w").unwrap();
    assert_eq!(out.rows, vec![vec![Value::str("a@b.c")]]);
}

// ---------------------------------------------------------------------
// Transactions & statement isolation
// ---------------------------------------------------------------------

#[test]
fn statement_error_inside_tx_preserves_earlier_statements() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER veto AFTER CREATE ON 'Bad' FOR EACH NODE
         BEGIN ABORT 'no Bad allowed' END",
    )
    .unwrap();
    s.begin().unwrap();
    s.run("CREATE (:Good)").unwrap();
    let err = s.run("CREATE (:Bad)").unwrap_err();
    assert!(matches!(
        err,
        TriggerError::Cypher(pg_cypher::CypherError::Aborted(_))
    ));
    s.commit().unwrap();
    assert_eq!(count(&mut s, "Good"), 1);
    assert_eq!(count(&mut s, "Bad"), 0);
}

#[test]
fn rollback_discards_trigger_effects() {
    let mut s = Session::new();
    s.install("CREATE TRIGGER log AFTER CREATE ON 'P' FOR EACH NODE BEGIN CREATE (:Log) END")
        .unwrap();
    s.begin().unwrap();
    s.run("CREATE (:P)").unwrap();
    s.rollback().unwrap();
    assert_eq!(count(&mut s, "P"), 0);
    assert_eq!(count(&mut s, "Log"), 0);
}

#[test]
fn disabled_trigger_does_not_fire() {
    let mut s = Session::new();
    s.install("CREATE TRIGGER log AFTER CREATE ON 'P' FOR EACH NODE BEGIN CREATE (:Log) END")
        .unwrap();
    s.set_trigger_enabled("log", false).unwrap();
    s.run("CREATE (:P)").unwrap();
    assert_eq!(count(&mut s, "Log"), 0);
    s.set_trigger_enabled("log", true).unwrap();
    s.run("CREATE (:P)").unwrap();
    assert_eq!(count(&mut s, "Log"), 1);
}

#[test]
fn execute_dispatches_ddl_and_queries() {
    let mut s = Session::new();
    match s
        .execute("CREATE TRIGGER t AFTER CREATE ON 'P' FOR EACH NODE BEGIN CREATE (:Log) END")
        .unwrap()
    {
        pg_triggers::ExecResult::TriggerCreated(name) => assert_eq!(name, "t"),
        other => panic!("unexpected {other:?}"),
    }
    s.execute("CREATE (:P)").unwrap();
    assert_eq!(count(&mut s, "Log"), 1);
    match s.execute("DROP TRIGGER t").unwrap() {
        pg_triggers::ExecResult::TriggerDropped(name) => assert_eq!(name, "t"),
        other => panic!("unexpected {other:?}"),
    }
    s.execute("CREATE (:P)").unwrap();
    assert_eq!(count(&mut s, "Log"), 1);
}

#[test]
fn trigger_does_not_monitor_bulk_loaded_data() {
    // graph_mut() bypasses triggers by design (bulk load path).
    let mut s = Session::new();
    s.install("CREATE TRIGGER log AFTER CREATE ON 'P' FOR EACH NODE BEGIN CREATE (:Log) END")
        .unwrap();
    s.graph_mut()
        .create_node(["P"], pg_graph::PropertyMap::new())
        .unwrap();
    assert_eq!(count(&mut s, "Log"), 0);
}

#[test]
fn stats_track_fired_and_suppressed() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER picky AFTER CREATE ON 'P' FOR EACH NODE
         WHEN NEW.go = true
         BEGIN CREATE (:Log) END",
    )
    .unwrap();
    s.run("CREATE (:P {go: true})").unwrap();
    s.run("CREATE (:P {go: false})").unwrap();
    let st = s.stats();
    assert_eq!(st.fired, 1);
    assert_eq!(st.suppressed, 1);
}

#[test]
fn detached_chain_is_bounded() {
    let mut s = Session::with_config(EngineConfig {
        max_detached_chain: 5,
        ..EngineConfig::default()
    });
    s.install("CREATE TRIGGER chain DETACHED CREATE ON 'A' FOR EACH NODE BEGIN CREATE (:A) END")
        .unwrap();
    s.run("CREATE (:A)").unwrap();
    // chain executed 5 times then stopped with a recorded error
    assert!(!s.detached_errors().is_empty());
    assert!(s.stats().detached_runs <= 5);
}
