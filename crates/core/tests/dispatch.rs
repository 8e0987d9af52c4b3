//! Event-keyed trigger dispatch: statements must not pay for triggers
//! whose events cannot intersect their delta — and the pre-filter must be
//! invisible to trigger semantics.

use pg_graph::GraphView;
use pg_triggers::{ActionTime, Session};

fn count(s: &mut Session, label: &str) -> i64 {
    s.run(&format!("MATCH (n:{label}) RETURN count(*) AS n"))
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap()
}

#[test]
fn irrelevant_trigger_neither_fires_nor_evaluates() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER on_a AFTER CREATE ON 'A' FOR EACH NODE
         WHEN NEW.x > 0
         BEGIN CREATE (:Fired) END",
    )
    .unwrap();
    // a :B-only statement: the trigger must not fire — and must not even
    // be *evaluated* (suppressed counts condition evaluations that failed;
    // the pre-filter skips before evaluation, so both stay 0)
    s.run("CREATE (:B {x: 1})").unwrap();
    assert_eq!(count(&mut s, "Fired"), 0);
    assert_eq!(s.stats().fired, 0);
    assert_eq!(s.stats().suppressed, 0);
    // catalog-level: the dispatch index rejects the trigger for a :B delta
    let delta = {
        let g = s.graph();
        let mut d = pg_graph::Delta::default();
        let mut rec = pg_graph::NodeRecord::new(g.all_node_ids()[0]);
        rec.labels.insert("B".to_string());
        d.created_nodes.push(rec);
        d
    };
    assert!(s.catalog().matching(ActionTime::After, &delta).is_empty());

    // the matching statement still fires (condition truthy)
    s.run("CREATE (:A {x: 1})").unwrap();
    assert_eq!(count(&mut s, "Fired"), 1);
    assert_eq!(s.stats().fired, 1);
    // and the condition still suppresses when false
    s.run("CREATE (:A {x: -1})").unwrap();
    assert_eq!(count(&mut s, "Fired"), 1);
    assert_eq!(s.stats().suppressed, 1);
}

#[test]
fn fanout_of_irrelevant_triggers_fires_only_the_match() {
    let mut s = Session::new();
    for i in 0..100 {
        s.install(&format!(
            "CREATE TRIGGER t{i} AFTER CREATE ON 'Other{i}' FOR EACH NODE
             BEGIN CREATE (:Wrong) END"
        ))
        .unwrap();
    }
    s.install(
        "CREATE TRIGGER hot AFTER CREATE ON 'Target' FOR EACH NODE
         BEGIN CREATE (:Fired) END",
    )
    .unwrap();
    s.run("CREATE (:Target)").unwrap();
    assert_eq!(count(&mut s, "Fired"), 1);
    assert_eq!(count(&mut s, "Wrong"), 0);
    assert_eq!(s.stats().fired, 1);
    assert_eq!(s.stats().suppressed, 0);
}

#[test]
fn prefilter_respects_property_events_and_labels() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER occ AFTER SET ON 'Hospital'.'occupancy' FOR EACH NODE
         BEGIN CREATE (:Alert) END",
    )
    .unwrap();
    s.run("CREATE (:Hospital {n: 1}), (:Ward {n: 2})").unwrap();
    // same key on a different label: pre-filter passes (key matches) but
    // binding rejects via the precise label check — no fire
    s.run("MATCH (w:Ward) SET w.occupancy = 0.5").unwrap();
    assert_eq!(count(&mut s, "Alert"), 0);
    // different key on the right label: pre-filter rejects outright
    s.run("MATCH (h:Hospital) SET h.beds = 10").unwrap();
    assert_eq!(count(&mut s, "Alert"), 0);
    // the monitored event fires
    s.run("MATCH (h:Hospital) SET h.occupancy = 0.97").unwrap();
    assert_eq!(count(&mut s, "Alert"), 1);
}

#[test]
fn create_trigger_with_property_still_gates_on_label() {
    // A property on a CREATE/DELETE trigger is legal DDL and ignored by
    // binding — the pre-filter must gate such triggers on their
    // label, not on the (never-matching) property key.
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER t AFTER CREATE ON 'L'.'p' FOR EACH NODE
         BEGIN CREATE (:Fired) END",
    )
    .unwrap();
    s.run("CREATE (:L {p: 1})").unwrap();
    assert_eq!(count(&mut s, "Fired"), 1);
    s.run("CREATE (:Other {p: 1})").unwrap();
    assert_eq!(count(&mut s, "Fired"), 1);
}

#[test]
fn prefilter_covers_oncommit_and_detached() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER oc ONCOMMIT CREATE ON 'A' FOR ALL NODES
         BEGIN CREATE (:OcFired) END",
    )
    .unwrap();
    s.install(
        "CREATE TRIGGER det DETACHED CREATE ON 'A' FOR ALL NODES
         BEGIN CREATE (:DetFired) END",
    )
    .unwrap();
    // irrelevant commit: neither activates
    s.run("CREATE (:B)").unwrap();
    assert_eq!(count(&mut s, "OcFired"), 0);
    assert_eq!(count(&mut s, "DetFired"), 0);
    // relevant commit: both do
    s.run("CREATE (:A)").unwrap();
    assert_eq!(count(&mut s, "OcFired"), 1);
    assert_eq!(count(&mut s, "DetFired"), 1);
    assert!(s.detached_errors().is_empty());
}

#[test]
fn before_triggers_still_condition_new_state_through_prefilter() {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER audit BEFORE CREATE ON 'P' FOR EACH NODE
         BEGIN SET NEW.audited = true END",
    )
    .unwrap();
    // irrelevant statement: untouched
    s.run("CREATE (:Q {x: 1})").unwrap();
    let rows = s.run("MATCH (q:Q) RETURN q.audited AS a").unwrap();
    assert_eq!(rows.rows[0][0], pg_graph::Value::Null);
    // relevant statement: conditioned
    s.run("CREATE (:P {x: 1})").unwrap();
    let rows = s.run("MATCH (p:P) RETURN p.audited AS a").unwrap();
    assert_eq!(rows.rows[0][0], pg_graph::Value::Bool(true));
}
