//! PG-Schema + PG-Triggers working together: a session with the CoV2K
//! graph type attached validates every commit; violations roll back like a
//! failing ONCOMMIT trigger, and triggers + schema compose.

use pg_graph::GraphView;
use pg_triggers::{Session, TriggerError};

fn schema_session() -> Session {
    let mut s = Session::new();
    s.set_schema(pg_covid::covid_graph_type());
    s
}

#[test]
fn conformant_commit_passes() {
    let mut s = schema_session();
    s.run(
        "CREATE (:Mutation {name: 'Spike:D614G', protein: 'Spike'}) \
         CREATE (:CriticalEffect {description: 'bad'})",
    )
    .unwrap();
    assert_eq!(s.graph().node_count(), 2);
}

#[test]
fn untyped_node_rolls_back() {
    let mut s = schema_session();
    let err = s.run("CREATE (:Gremlin {x: 1})").unwrap_err();
    assert!(matches!(err, TriggerError::Schema(_)), "{err}");
    assert_eq!(s.graph().node_count(), 0);
}

#[test]
fn missing_required_property_rolls_back() {
    let mut s = schema_session();
    let err = s.run("CREATE (:Mutation {name: 'x'})").unwrap_err(); // missing protein
    assert!(matches!(err, TriggerError::Schema(_)), "{err}");
    assert_eq!(s.graph().node_count(), 0);
}

#[test]
fn wrong_property_type_rolls_back() {
    let mut s = schema_session();
    let err = s
        .run("CREATE (:Hospital {name: 'Sacco', icuBeds: 'many'})")
        .unwrap_err();
    assert!(matches!(err, TriggerError::Schema(_)), "{err}");
}

#[test]
fn pg_key_uniqueness_enforced_across_commits() {
    let mut s = schema_session();
    s.run("CREATE (:Sequence {accession: 'A1', collection: date()})")
        .unwrap();
    let err = s
        .run("CREATE (:Sequence {accession: 'A1', collection: date()})")
        .unwrap_err();
    assert!(matches!(err, TriggerError::Schema(_)), "{err}");
    // only the first sequence survives
    let n = s
        .run("MATCH (x:Sequence) RETURN count(*) AS n")
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap();
    assert_eq!(n, 1);
}

#[test]
fn bad_edge_signature_rolls_back() {
    let mut s = schema_session();
    s.run(
        "CREATE (:Mutation {name: 'm', protein: 'Spike'}) \
         CREATE (:Region {name: 'Lombardy'})",
    )
    .unwrap();
    // Mutation-[:TreatedAt]->Region matches no edge type signature
    let err = s
        .run("MATCH (m:Mutation), (r:Region) CREATE (m)-[:TreatedAt]->(r)")
        .unwrap_err();
    assert!(matches!(err, TriggerError::Schema(_)), "{err}");
    assert_eq!(s.graph().rel_count(), 0);
}

#[test]
fn trigger_effects_are_also_validated() {
    // A trigger that produces a schema-violating node fails the whole
    // transaction — triggers cannot smuggle non-conformant data past the
    // schema guard.
    let mut s = schema_session();
    s.install(
        "CREATE TRIGGER rogue AFTER CREATE ON 'Region' FOR EACH NODE
         BEGIN CREATE (:Gremlin) END",
    )
    .unwrap();
    let err = s.run("CREATE (:Region {name: 'Lombardy'})").unwrap_err();
    assert!(matches!(err, TriggerError::Schema(_)), "{err}");
    assert_eq!(s.graph().node_count(), 0);
}

#[test]
fn open_alert_type_lets_triggers_attach_arbitrary_props() {
    // The §6.2 alert triggers attach mutation/lineage properties — legal
    // because AlertType is OPEN.
    let mut s = schema_session();
    s.install(pg_covid::triggers::NEW_CRITICAL_MUTATION)
        .unwrap();
    s.run("CREATE (:CriticalEffect {description: 'bad'})")
        .unwrap();
    s.run(
        "MATCH (e:CriticalEffect)
         CREATE (:Mutation {name: 'Spike:E484K', protein: 'Spike'})-[:Risk]->(e)",
    )
    .unwrap();
    let n = s
        .run("MATCH (a:Alert) RETURN count(*) AS n")
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap();
    assert_eq!(n, 1);
}

#[test]
fn whole_scenario_stays_conformant_under_guard() {
    use pg_covid::{GeneratorConfig, Scenario, ScenarioConfig};
    let mut sc = Scenario::new(ScenarioConfig {
        generator: GeneratorConfig {
            patients: 50,
            sequences: 40,
            ..GeneratorConfig::default()
        },
        waves: 2,
        admissions_per_wave: 5,
        discoveries: 1,
        redesignations: 1,
        indexed: false,
    });
    sc.session.set_schema(pg_covid::covid_graph_type());
    let report = sc.run().unwrap();
    assert!(report.total_alerts() > 0);
}

// ---------------------------------------------------------------------
// A relabel changes a node's type, and with it the endpoint signature of
// incident edges the transaction never touched.
// ---------------------------------------------------------------------

/// One hospitalized and one ICU patient treated at Sacco (Lombardy).
fn ward_session() -> Session {
    let mut s = schema_session();
    s.run(
        "CREATE (h:Hospital {name: 'Sacco', icuBeds: 20})-[:LocatedIn]->(:Region {name: 'Lombardy'}) \
         CREATE (:Patient:HospitalizedPatient {ssn: 'S1', name: 'A', sex: 'F', id: 1, \
                 prognosis: 'fair'})-[:TreatedAt]->(h) \
         CREATE (:Patient:HospitalizedPatient:IcuPatient {ssn: 'S2', name: 'B', sex: 'M', id: 2, \
                 prognosis: 'severe', admittedToICU: true})-[:TreatedAt]->(h)",
    )
    .unwrap();
    assert_eq!(conformance(&s), vec![]);
    s
}

fn conformance(s: &Session) -> Vec<pg_schema::Violation> {
    pg_schema::validate_graph(s.graph(), &pg_covid::covid_graph_type())
}

/// Run a statement the guard must reject for endpoint signatures alone and
/// roll back; returns the edge types blamed, in report order.
fn rejected_endpoints(s: &mut Session, stmt: &str) -> Vec<String> {
    let before = pg_wal::encode_snapshot(s.graph(), 0);
    let err = s.run(stmt).unwrap_err();
    let TriggerError::Schema(v) = &err else {
        panic!("expected a schema violation, got {err}");
    };
    assert_eq!(pg_wal::encode_snapshot(s.graph(), 0), before, "{err}");
    (v.violations.iter())
        .map(|x| match x {
            pg_schema::Violation::BadEndpoints { edge_type, .. } => edge_type.clone(),
            other => panic!("unexpected violation {other}"),
        })
        .collect()
}

#[test]
fn demoting_an_edge_source_rolls_back() {
    // The node ends up a well-typed plain Patient; its TreatedAt edge,
    // which the statement never touches, needs a HospitalizedPatient.
    let mut s = ward_session();
    let blamed = rejected_endpoints(
        &mut s,
        "MATCH (p:HospitalizedPatient {ssn: 'S1'}) \
         REMOVE p:HospitalizedPatient REMOVE p.id REMOVE p.prognosis",
    );
    assert_eq!(blamed, ["TreatedAtType"]);
}

#[test]
fn retyping_an_edge_destination_rolls_back() {
    // The hospital becomes a well-typed Region while two TreatedAt edges
    // still point at it and a LocatedIn edge leaves it
    // (Region-[:LocatedIn]->Region matches neither LocatedIn edge type; the
    // first declared one is named).
    let mut s = ward_session();
    let blamed = rejected_endpoints(
        &mut s,
        "MATCH (h:Hospital {name: 'Sacco'}) REMOVE h:Hospital SET h:Region REMOVE h.icuBeds",
    );
    assert_eq!(
        blamed,
        ["LabLocatedInType", "TreatedAtType", "TreatedAtType"]
    );
}

#[test]
fn relabel_keeping_incident_edges_valid_commits() {
    // IcuPatient -> HospitalizedPatient: TreatedAt accepts the supertype.
    let mut s = ward_session();
    s.run("MATCH (p:IcuPatient {ssn: 'S2'}) REMOVE p:IcuPatient REMOVE p.admittedToICU")
        .unwrap();
    assert_eq!(conformance(&s), vec![]);
    assert_eq!(s.graph().nodes_with_label("IcuPatient"), vec![]);
}

#[test]
fn preexisting_violation_elsewhere_does_not_block_a_commit() {
    // Loaded around the guard: an untyped node, and a TreatedAt edge from a
    // plain Patient. Neither is the next transaction's doing.
    let mut s = ward_session();
    let g = s.graph_mut();
    g.create_node(["Gremlin"], pg_graph::PropertyMap::new())
        .unwrap();
    let hospital = g.nodes_with_label("Hospital")[0];
    let props = [("ssn", "S9"), ("name", "Z"), ("sex", "F")];
    let props = props.map(|(k, v)| (k.to_string(), pg_graph::Value::str(v)));
    let stray = g
        .create_node(["Patient"], props.into_iter().collect())
        .unwrap();
    g.create_rel(stray, hospital, "TreatedAt", pg_graph::PropertyMap::new())
        .unwrap();
    assert_eq!(conformance(&s).len(), 2);

    s.run("CREATE (:Region {name: 'Tuscany'})").unwrap();
    s.run("MATCH (p:Patient {ssn: 'S1'}) SET p.prognosis = 'good'")
        .unwrap();
    assert_eq!(conformance(&s).len(), 2);
    // ... but touching the stray edge's endpoint type is.
    let err = s
        .run("MATCH (p:Patient {ssn: 'S9'}) SET p:Gremlin")
        .unwrap_err();
    assert!(matches!(err, TriggerError::Schema(_)), "{err}");
}
