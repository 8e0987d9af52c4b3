//! F2/F3 — translation equivalence: for each event kind, run the same
//! workload against (a) the native PG-Trigger engine, (b) the APOC
//! emulation executing the Figure 2 translation, and (c) the Memgraph
//! emulation executing the Figure 3 translation, then compare observable
//! effects.

use pg_apoc::ApocDb;
use pg_memgraph::MemgraphDb;
use pg_triggers::{parse_trigger_ddl, DdlStatement, Session, TriggerSpec};

fn spec(ddl: &str) -> TriggerSpec {
    match parse_trigger_ddl(ddl).unwrap() {
        DdlStatement::CreateTrigger(s) => s,
        _ => panic!("expected CREATE TRIGGER"),
    }
}

/// Run `setup` then `event` on all three engines with the given trigger;
/// return the number of `Probe` nodes each produced.
fn run_three_ways(ddl: &str, setup: &[&str], event: &str) -> (i64, i64, i64) {
    run_three_ways_counting(ddl, setup, event, "MATCH (p:Probe) RETURN count(*) AS n")
}

/// [`run_three_ways`], returning what `count` (a one-integer query) says
/// on each engine afterwards.
fn run_three_ways_counting(ddl: &str, setup: &[&str], event: &str, count: &str) -> (i64, i64, i64) {
    let t = spec(ddl);

    // native
    let mut native = Session::new();
    native.install(ddl).unwrap();
    for s in setup {
        native.run(s).unwrap();
    }
    native.run(event).unwrap();
    let n_native = native
        .run(count)
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap();

    // APOC
    let mut apoc = ApocDb::new();
    let install = pg_apoc::translate(&t).unwrap();
    apoc.install(
        "neo4j",
        &install.name,
        &install.statement,
        install.phase.name(),
    )
    .unwrap();
    for s in setup {
        apoc.run_tx(&[s]).unwrap();
    }
    apoc.run_tx(&[event]).unwrap();
    let n_apoc = apoc
        .query(count)
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap();

    // Memgraph
    let mut mg = MemgraphDb::new();
    let install = pg_memgraph::translate(&t).unwrap();
    mg.create_trigger(&install.ddl).unwrap();
    for s in setup {
        mg.run_tx(&[s]).unwrap();
    }
    mg.run_tx(&[event]).unwrap();
    let n_mg = mg
        .query(count)
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap();

    (n_native, n_apoc, n_mg)
}

#[test]
fn node_creation_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER CREATE ON 'P' FOR EACH NODE BEGIN CREATE (:Probe {of: NEW.name}) END",
        &[],
        "CREATE (:P {name: 'x'}), (:P {name: 'y'}), (:Q {name: 'z'})",
    );
    assert_eq!((n, a, m), (2, 2, 2));
}

#[test]
fn node_creation_with_condition_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER CREATE ON 'P' FOR EACH NODE
         WHEN NEW.score > 10
         BEGIN CREATE (:Probe) END",
        &[],
        "CREATE (:P {score: 5}), (:P {score: 15}), (:P {score: 25})",
    );
    assert_eq!((n, a, m), (2, 2, 2));
}

#[test]
fn pattern_condition_equivalent() {
    // The paper's Figure 2 example: EXISTS pattern condition.
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER CREATE ON 'Mutation' FOR EACH NODE
         WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect)
         BEGIN CREATE (:Probe {mutation: NEW.name}) END",
        &["CREATE (:CriticalEffect {description: 'bad'})"],
        "MATCH (e:CriticalEffect) \
         CREATE (:Mutation {name: 'critical'})-[:Risk]->(e), (:Mutation {name: 'benign'})",
    );
    assert_eq!((n, a, m), (1, 1, 1));
}

#[test]
fn rel_creation_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER CREATE ON 'BelongsTo' FOR EACH RELATIONSHIP
         BEGIN CREATE (:Probe) END",
        &["CREATE (:Sequence {accession: 's'}), (:Lineage {name: 'l'})"],
        "MATCH (s:Sequence), (l:Lineage) CREATE (s)-[:BelongsTo]->(l), (s)-[:Other]->(l)",
    );
    assert_eq!((n, a, m), (1, 1, 1));
}

#[test]
fn node_deletion_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER DELETE ON 'Doomed' FOR EACH NODE
         BEGIN CREATE (:Probe {was: OLD.name}) END",
        &["CREATE (:Doomed {name: 'd1'}), (:Doomed {name: 'd2'}), (:Safe {name: 's'})"],
        "MATCH (d:Doomed) DETACH DELETE d",
    );
    assert_eq!((n, a, m), (2, 2, 2));
}

#[test]
fn rel_deletion_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER DELETE ON 'R' FOR EACH RELATIONSHIP BEGIN CREATE (:Probe) END",
        &["CREATE (:A)-[:R]->(:B)"],
        "MATCH ()-[r:R]-() DELETE r",
    );
    assert_eq!((n, a, m), (1, 1, 1));
}

#[test]
fn label_set_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER SET ON 'Flagged' FOR EACH NODE BEGIN CREATE (:Probe) END",
        &["CREATE (:P {name: 'x'}), (:P {name: 'y'})"],
        "MATCH (p:P {name: 'x'}) SET p:Flagged",
    );
    assert_eq!((n, a, m), (1, 1, 1));
}

#[test]
fn label_remove_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER REMOVE ON 'Flagged' FOR EACH NODE BEGIN CREATE (:Probe) END",
        &["CREATE (:P:Flagged {name: 'x'})"],
        "MATCH (p:P) REMOVE p:Flagged",
    );
    assert_eq!((n, a, m), (1, 1, 1));
}

#[test]
fn property_set_old_new_equivalent() {
    // The paper's WhoDesignationChange shape.
    let ddl = "CREATE TRIGGER t AFTER SET ON 'Lineage'.'who' FOR EACH NODE
         WHEN OLD.who <> NEW.who
         BEGIN CREATE (:Probe {was: OLD.who, now: NEW.who}) END";
    let (n, a, m) = run_three_ways(
        ddl,
        &["CREATE (:Lineage {who: 'Indian'})"],
        "MATCH (l:Lineage) SET l.who = 'Delta'",
    );
    assert_eq!((n, a, m), (1, 1, 1));
    // same-value set fires nowhere
    let (n, a, m) = run_three_ways(
        ddl,
        &["CREATE (:Lineage {who: 'Delta'})"],
        "MATCH (l:Lineage) SET l.who = 'Delta'",
    );
    assert_eq!((n, a, m), (0, 0, 0));
}

#[test]
fn property_remove_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER REMOVE ON 'P'.'email' FOR EACH NODE
         BEGIN CREATE (:Probe {was: OLD.email}) END",
        &["CREATE (:P {email: 'a@b'})"],
        "MATCH (p:P) REMOVE p.email",
    );
    assert_eq!((n, a, m), (1, 1, 1));
}

#[test]
fn rel_property_set_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER SET ON 'R'.'w' FOR EACH RELATIONSHIP
         WHEN NEW.w > OLD.w
         BEGIN CREATE (:Probe) END",
        &["CREATE (:A)-[:R {w: 1}]->(:B)"],
        "MATCH ()-[r:R]-() SET r.w = 5",
    );
    assert_eq!((n, a, m), (1, 1, 1));
}

#[test]
fn for_all_granularity_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER CREATE ON 'P' FOR ALL NODES
         BEGIN CREATE (:Probe {n: size(NEWNODES)}) END",
        &[],
        "CREATE (:P), (:P), (:P)",
    );
    // one probe each, carrying the batch size
    assert_eq!((n, a, m), (1, 1, 1));
}

#[test]
fn cascading_diverges_by_design() {
    // Native cascades; APOC/Memgraph don't (§5.1/§5.2). This is the
    // documented semantic gap, verified as a divergence.
    let chain1 = "CREATE TRIGGER c1 AFTER CREATE ON 'A' FOR EACH NODE BEGIN CREATE (:B) END";
    let chain2 = "CREATE TRIGGER c2 AFTER CREATE ON 'B' FOR EACH NODE BEGIN CREATE (:Probe) END";

    let mut native = Session::new();
    native.install(chain1).unwrap();
    native.install(chain2).unwrap();
    native.run("CREATE (:A)").unwrap();
    let n = native
        .run("MATCH (p:Probe) RETURN count(*) AS n")
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap();

    let mut apoc = ApocDb::new();
    for ddl in [chain1, chain2] {
        let i = pg_apoc::translate(&spec(ddl)).unwrap();
        apoc.install("neo4j", &i.name, &i.statement, i.phase.name())
            .unwrap();
    }
    apoc.run_tx(&["CREATE (:A)"]).unwrap();
    let a = apoc
        .query("MATCH (p:Probe) RETURN count(*) AS n")
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap();

    let mut mg = MemgraphDb::new();
    for ddl in [chain1, chain2] {
        let i = pg_memgraph::translate(&spec(ddl)).unwrap();
        mg.create_trigger(&i.ddl).unwrap();
    }
    mg.run_tx(&["CREATE (:A)"]).unwrap();
    let m = mg
        .query("MATCH (p:Probe) RETURN count(*) AS n")
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap();

    assert_eq!(n, 1, "native cascades");
    assert_eq!(a, 0, "APOC blocks cascades");
    assert_eq!(m, 0, "Memgraph blocks cascades");
}

#[test]
fn oncommit_maps_to_before_phase_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t ONCOMMIT CREATE ON 'P' FOR ALL NODES
         BEGIN CREATE (:Probe {n: size(NEWNODES)}) END",
        &[],
        "CREATE (:P), (:P)",
    );
    assert_eq!((n, a, m), (1, 1, 1));
}

// A condition pipeline that projects (`WITH count(…) AS k`) must keep the
// affected item in scope: the translations carry the names the event
// prefix binds through every such `WITH`, grouping per item under FOR EACH
// and into one group under FOR ALL — the native semantics.

#[test]
fn projecting_condition_pipeline_per_item_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER CREATE ON 'P' FOR EACH NODE
         WHEN MATCH (q:Q) WITH count(q) AS k WHERE k > 0
         BEGIN CREATE (:Probe {k: k}) END",
        &["CREATE (:Q)"],
        "CREATE (:P), (:P)",
    );
    assert_eq!((n, a, m), (2, 2, 2));
}

#[test]
fn projecting_condition_pipeline_per_set_equivalent() {
    let (n, a, m) = run_three_ways(
        "CREATE TRIGGER t AFTER CREATE ON 'P' FOR ALL NODES
         WHEN MATCH (q:Q) WITH count(q) AS k WHERE k > 0
         BEGIN CREATE (:Probe {k: k}) END",
        &["CREATE (:Q)"],
        "CREATE (:P), (:P)",
    );
    assert_eq!((n, a, m), (1, 1, 1));
}

/// The §6.2 triggers whose conditions are projecting pipelines, with
/// their conditions true: Sacco (Lombardy) has no free ICU bed when a new
/// ICU patient is admitted there; Meyer, connected to it, has ten.
#[test]
fn paper_pipeline_triggers_fire_in_both_emulators() {
    use pg_covid::triggers::{ICU_PATIENT_INCREASE, ICU_PATIENT_MOVE, MOVE_TO_NEAR_HOSPITAL};
    let setup = [
        "CREATE (s:Hospital {name: 'Sacco', icuBeds: 0})-[:LocatedIn]->(:Region {name: 'Lombardy'}),
                (s)-[:ConnectedTo {distance: 5}]->(:Hospital {name: 'Meyer', icuBeds: 10})",
    ];
    let admit = "MATCH (h:Hospital {name: 'Sacco'})
                 CREATE (:HospitalizedPatient:IcuPatient {ssn: 1})-[:TreatedAt]->(h)";
    let alerts = "MATCH (a:Alert) RETURN count(*) AS n";
    let at_meyer =
        "MATCH (:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Meyer'}) RETURN count(*) AS n";
    for (ddl, count) in [
        (ICU_PATIENT_INCREASE, alerts),
        (ICU_PATIENT_MOVE, at_meyer),
        (MOVE_TO_NEAR_HOSPITAL, at_meyer),
    ] {
        let name = spec(ddl).name;
        let (n, a, m) = run_three_ways_counting(ddl, &setup, admit, count);
        assert_eq!((n, a, m), (1, 1, 1), "{name}");
    }
}
