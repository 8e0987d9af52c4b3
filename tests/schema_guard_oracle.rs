//! Oracle for the commit-time schema guard: the O(|Δ|) check against the
//! whole-graph reference, `pg_schema::validate_graph`.
//!
//! Two sessions run in lockstep over a conformant CoV2K graph: the
//! *guarded* one has the graph type attached, its *twin* does not. Every
//! generated transaction first runs on the twin, where `validate_graph` of
//! the would-be post-state decides whether it commits; the guarded session
//! must then reach the same verdict from the transaction delta alone, blame
//! the same violations in the same order, and leave the same bytes behind.
//! The pre-state of every transaction is conformant, so every violation of
//! the post-state is the transaction's.

mod common;

use common::{dump, fuzz_cases};
use pg_covid::{covid_graph_type, generator, GeneratorConfig};
use pg_graph::{GraphView, IndexDef};
use pg_schema::{validate_graph, Violation};
use pg_triggers::{Session, TriggerError};
use pg_wal::encode_snapshot;
use proptest::prelude::*;

const SSNS: [&str; 5] = ["SSN00000000", "SSN00000001", "SSN00000002", "N0", "N1"];
const ACCESSIONS: [&str; 3] = ["SEQ000000", "SEQ000001", "A0"];
const HOSPITALS: [&str; 3] = ["Sacco", "Meyer", "Hospital-0-1"];
const LABELS: [&str; 5] = [
    "Patient",
    "HospitalizedPatient",
    "IcuPatient",
    "Region",
    "Hospital",
];
/// Patient properties: the key, a required one, an optional one, the two a
/// `HospitalizedPatient` adds, one an `IcuPatient` adds, an undeclared one.
const PATIENT_KEYS: [&str; 7] = [
    "ssn",
    "name",
    "vaccinated",
    "id",
    "prognosis",
    "admittedToICU",
    "shoe",
];

/// A trigger whose body violates the schema when its condition holds: the
/// guard must see trigger effects as part of the transaction.
const ROGUE: &str = "CREATE TRIGGER rogue AFTER SET ON 'Lineage'.'whoDesignation' FOR EACH NODE
     WHEN NEW.whoDesignation STARTS WITH 'X'
     BEGIN CREATE (:Gremlin {of: NEW.name}) END";

/// A small conformant graph with the whole patient hierarchy populated, the
/// rogue trigger, and a fixed clock (`date()` must agree across sessions).
/// Both sessions get the graph type's indexes so their snapshots agree
/// byte for byte; only `guarded` gets the guard.
fn session(guarded: bool, key_index: bool) -> Session {
    let mut s = Session::new();
    s.set_now_ms(1_700_000_000_000);
    let cfg = GeneratorConfig {
        regions: 2,
        hospitals_per_region: 2,
        labs_per_region: 1,
        mutations: 4,
        effects: 2,
        lineages: 2,
        sequences: 3,
        patients: 3,
        ..GeneratorConfig::default()
    };
    generator::generate(s.graph_mut(), &cfg);
    s.run(
        "MATCH (p:Patient {ssn: 'SSN00000001'}), (h:Hospital {name: 'Sacco'}) \
         SET p:HospitalizedPatient SET p.id = 1 SET p.prognosis = 'fair' \
         CREATE (p)-[:TreatedAt]->(h)",
    )
    .unwrap();
    s.run(
        "MATCH (p:Patient {ssn: 'SSN00000002'}), (h:Hospital {name: 'Meyer'}) \
         SET p:HospitalizedPatient SET p:IcuPatient SET p.id = 2 SET p.prognosis = 'severe' \
         SET p.admittedToICU = true CREATE (p)-[:TreatedAt]->(h)",
    )
    .unwrap();
    s.install(ROGUE).unwrap();
    let gt = covid_graph_type();
    assert_eq!(validate_graph(s.graph(), &gt), vec![]);
    if guarded {
        s.set_schema(gt);
    } else {
        for def in gt.index_defs() {
            s.create_index(&def).unwrap();
        }
    }
    if !key_index {
        // the guard's key check must fall back to a label scan
        s.drop_index(&IndexDef::node("Patient", &["ssn"])).unwrap();
    }
    s
}

/// One statement of a generated transaction. None can fail at run time
/// (matching nothing is a no-op), so a transaction fails only at commit.
fn statement((kind, a, b, c): (usize, usize, usize, usize)) -> String {
    let ssn = SSNS[a % SSNS.len()];
    let patient = format!("MATCH (p:Patient {{ssn: '{ssn}'}})");
    let hospital = HOSPITALS[b % HOSPITALS.len()];
    let label = LABELS[c % LABELS.len()];
    let key = PATIENT_KEYS[b % PATIENT_KEYS.len()];
    match kind {
        // -- node creation: conformant (unless the key is taken), or
        //    breaking one rule each
        0 => match c % 6 {
            0 | 1 => format!("CREATE (:Patient {{ssn: '{ssn}', name: 'n', sex: 'F'}})"),
            2 => format!("CREATE (:Patient {{ssn: '{ssn}', name: 'n'}})"),
            3 => format!("CREATE (:Patient {{ssn: {b}, name: 'n', sex: 'F'}})"),
            4 => format!("CREATE (:Patient {{ssn: '{ssn}', name: 'n', sex: 'F', shoe: 42}})"),
            _ => format!("CREATE (:Patient:IcuPatient {{ssn: '{ssn}', name: 'n', sex: 'F'}})"),
        },
        1 => format!(
            "CREATE (:Sequence {{accession: '{}', collection: date()}})",
            ACCESSIONS[a % ACCESSIONS.len()]
        ),
        2 => format!(
            "MATCH (h:Hospital {{name: '{hospital}'}}) \
             CREATE (:Patient:HospitalizedPatient {{ssn: '{ssn}', name: 'n', sex: 'M', \
                     id: {c}, prognosis: 'fair'}})-[:TreatedAt]->(h)"
        ),
        // -- deletion
        3 => format!("{patient} DETACH DELETE p"),
        4 => format!("MATCH (h:Hospital {{name: '{hospital}'}}) DETACH DELETE h"),
        // -- single label changes, along and across the hierarchy
        5 => format!("{patient} SET p:{label}"),
        6 => format!("{patient} REMOVE p:{label}"),
        7 => match c % 3 {
            0 => format!(
                "MATCH (h:Hospital {{name: '{hospital}'}}) \
                 REMOVE h:Hospital SET h:Region REMOVE h.icuBeds"
            ),
            1 => format!("MATCH (h:Hospital {{name: '{hospital}'}}) SET h:Region"),
            _ => "MATCH (r:Region {name: 'Lombardy'}) \
                  REMOVE r:Region SET r:Hospital SET r.icuBeds = 3"
                .to_string(),
        },
        // -- whole retypings in one statement (valid unless an incident
        //    edge or the new type's key space objects)
        8 => format!("{patient} SET p:HospitalizedPatient SET p.id = {c} SET p.prognosis = 'fair'"),
        9 => format!(
            "{patient} REMOVE p:IcuPatient REMOVE p:HospitalizedPatient REMOVE p.id \
             REMOVE p.prognosis REMOVE p.admittedToICU REMOVE p.admission"
        ),
        10 => match c % 2 {
            0 => format!("{patient} SET p:IcuPatient SET p.admittedToICU = true"),
            _ => format!("{patient} REMOVE p:IcuPatient REMOVE p.admittedToICU"),
        },
        // -- node properties: required, optional, undeclared, key
        11 => {
            let value = match (key, c % 3) {
                ("ssn", 0) => format!("'{}'", SSNS[c % SSNS.len()]),
                ("ssn", 1) => "'FRESH'".to_string(),
                ("vaccinated" | "id", 0 | 1) => c.to_string(),
                ("vaccinated", _) => "9999999999".to_string(),
                ("admittedToICU", 0 | 1) => "false".to_string(),
                (_, 2) => "7".to_string(),
                _ => "'text'".to_string(),
            };
            format!("{patient} SET p.{key} = {value}")
        }
        12 => format!("{patient} REMOVE p.{key}"),
        13 => format!(
            "MATCH (s:Sequence {{accession: '{}'}}) SET s.accession = '{}'",
            ACCESSIONS[a % ACCESSIONS.len()],
            ACCESSIONS[c % ACCESSIONS.len()]
        ),
        // -- relationships
        14 => format!(
            "{patient} MATCH (h:Hospital {{name: '{hospital}'}}) CREATE (p)-[:{}]->(h)",
            ["TreatedAt", "TreatedAt", "HasSample", "Mystery"][c % 4]
        ),
        15 => format!("MATCH (p:Patient {{ssn: '{ssn}'}})-[r:TreatedAt]->() DELETE r"),
        16 => format!(
            "MATCH (a:Hospital {{name: '{}'}}), (b:Hospital {{name: '{hospital}'}}) \
             CREATE (a)-[:ConnectedTo {}]->(b)",
            HOSPITALS[a % HOSPITALS.len()],
            ["{distance: 5}", "", "{distance: 'far'}"][c % 3]
        ),
        17 => {
            let edge = format!("MATCH (:Hospital {{name: '{hospital}'}})-[e:ConnectedTo]->()");
            match c % 3 {
                0 => format!("{edge} SET e.distance = {a}"),
                1 => format!("{edge} SET e.distance = 'far'"),
                _ => format!("{edge} REMOVE e.distance"),
            }
        }
        // -- the rogue trigger fires on 'Xi' only
        _ => format!(
            "MATCH (l:Lineage {{name: 'B.1.0'}}) SET l.whoDesignation = '{}'",
            ["Xi", "Delta"][c % 2]
        ),
    }
}

/// Run one transaction on the guarded session: a lone statement in
/// auto-commit, anything else in an explicit `BEGIN … COMMIT` block.
fn run_guarded(s: &mut Session, stmts: &[String], explicit: bool) -> Result<(), TriggerError> {
    if let ([stmt], false) = (stmts, explicit) {
        return s.run(stmt).map(drop);
    }
    s.begin()?;
    for stmt in stmts {
        s.run(stmt)?;
    }
    s.commit()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: fuzz_cases() * 4 })]

    #[test]
    fn guard_agrees_with_whole_graph_validation(
        txs in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..19, 0usize..8, 0usize..8, 0usize..12), 1..4),
                any::<bool>(),
            ),
            1..16,
        ),
        key_index in any::<bool>(),
    ) {
        let gt = covid_graph_type();
        let mut guarded = session(true, key_index);
        let mut twin = session(false, key_index);
        prop_assert_eq!(encode_snapshot(guarded.graph(), 0), encode_snapshot(twin.graph(), 0));

        for (steps, explicit) in txs {
            let stmts: Vec<String> = steps.into_iter().map(statement).collect();
            let before = dump(guarded.graph());

            // The reference verdict, from the would-be post-state.
            twin.begin().unwrap();
            for stmt in &stmts {
                twin.run(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
            }
            let expected = validate_graph(twin.graph(), &gt);
            if expected.is_empty() {
                twin.commit().unwrap();
            } else {
                twin.rollback().unwrap();
            }

            match run_guarded(&mut guarded, &stmts, explicit) {
                Ok(()) => prop_assert_eq!(&expected, &vec![], "admitted: {:?}", stmts),
                Err(TriggerError::Schema(v)) => {
                    // same violations, same order: node id, then rel id
                    prop_assert_eq!(&v.violations, &expected, "blamed: {:?}", stmts);
                    prop_assert_eq!(dump(guarded.graph()), before, "not rolled back: {:?}", stmts);
                }
                Err(other) => panic!("{stmts:?}: {other}"),
            }
            prop_assert_eq!(
                encode_snapshot(guarded.graph(), 0),
                encode_snapshot(twin.graph(), 0),
                "diverged after {:?}", stmts
            );
        }
        prop_assert_eq!(validate_graph(guarded.graph(), &gt), vec![]);
    }
}

// ---------------------------------------------------------------------
// The guard judges the net effect at commit, never an intermediate state.
// ---------------------------------------------------------------------

#[test]
fn intermediate_violation_with_conformant_net_effect_commits() {
    let mut s = session(true, true);
    s.begin().unwrap();
    // a HospitalizedPatient without id and prognosis, for one statement
    s.run("MATCH (p:Patient {ssn: 'SSN00000000'}) SET p:HospitalizedPatient")
        .unwrap();
    assert_ne!(validate_graph(s.graph(), &covid_graph_type()), vec![]);
    s.run("MATCH (p:Patient {ssn: 'SSN00000000'}) SET p.id = 7 SET p.prognosis = 'fair'")
        .unwrap();
    // a duplicate key that is gone again by commit time
    s.run("CREATE (:Sequence {accession: 'SEQ000000', collection: date()})")
        .unwrap();
    s.run("MATCH (s:Sequence {accession: 'SEQ000000'}) SET s.accession = 'A0'")
        .unwrap();
    s.run("MATCH (s:Sequence {accession: 'A0'}) WITH s ORDER BY id(s) LIMIT 1 SET s.accession = 'SEQ000000'")
        .unwrap();
    s.commit().unwrap();
    assert_eq!(validate_graph(s.graph(), &covid_graph_type()), vec![]);
    assert_eq!(s.graph().nodes_with_label("HospitalizedPatient").len(), 3);
}

#[test]
fn violation_at_commit_rolls_back_the_whole_block() {
    // a conformant statement, then a trigger's violation, then one of the
    // block's own
    const BLOCK: [&str; 3] = [
        "CREATE (:Region {name: 'Veneto'})",
        "MATCH (l:Lineage {name: 'B.1.0'}) SET l.whoDesignation = 'Xi'",
        "MATCH (h:Hospital {name: 'Sacco'}) SET h.icuBeds = 'many'",
    ];
    let (mut s, mut twin) = (session(true, true), session(false, true));
    let before = dump(s.graph());
    s.begin().unwrap();
    for stmt in BLOCK {
        s.run(stmt).unwrap();
        twin.run(stmt).unwrap();
    }
    let err = s.commit().unwrap_err();
    let TriggerError::Schema(v) = &err else {
        panic!("{err}");
    };
    // node id order — the hospital predates the trigger's Gremlin — which
    // is the reference's, so `Display` is a stable message
    assert!(
        matches!(
            v.violations.as_slice(),
            [
                Violation::WrongPropType { .. },
                Violation::UntypedNode { .. }
            ]
        ),
        "{err}"
    );
    assert_eq!(
        v.violations,
        validate_graph(twin.graph(), &covid_graph_type())
    );
    assert_eq!(dump(s.graph()), before);
}

#[test]
fn key_spaces_are_per_resolved_type() {
    // A Patient and a HospitalizedPatient may share an ssn; two plain
    // Patients may not — with or without the KEY index to probe.
    for key_index in [true, false] {
        let mut s = session(true, key_index);
        s.run("CREATE (:Patient {ssn: 'SSN00000001', name: 'n', sex: 'F'})")
            .unwrap();
        let err = s
            .run("CREATE (:Patient {ssn: 'SSN00000001', name: 'n', sex: 'F'})")
            .unwrap_err();
        assert!(
            matches!(&err, TriggerError::Schema(v)
                if matches!(v.violations.as_slice(), [Violation::DuplicateKey { .. }])),
            "{err}"
        );
        // promoting the copy moves it into the occupied key space
        let err = s
            .run(
                "MATCH (p:Patient {ssn: 'SSN00000001'}) WHERE p.id IS NULL \
                 SET p:HospitalizedPatient SET p.id = 9 SET p.prognosis = 'fair'",
            )
            .unwrap_err();
        assert!(matches!(err, TriggerError::Schema(_)), "{err}");
    }
}
