//! `CREATE INDEX` DDL through the session, and index consistency when the
//! engine aborts work: statement rollback inside an explicit transaction
//! and a trigger cascade cut off by `RecursionLimit`. The DDL parsers
//! (index and trigger) are also fed hostile text and must return a value
//! or a typed error, never panic.

use pg_graph::{
    CompositeTrailing, GraphView, IndexDef, IndexProbe, IndexScope, NodeId, ProbeMode, Value,
};
use pg_triggers::{
    parse_index_ddl, parse_trigger_ddl, EngineConfig, ExecResult, IndexDdl, InstallError, Session,
    TriggerError,
};
use proptest::prelude::*;
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
    for def in s.indexes() {
        let (IndexScope::Label(label), [key]) = (def.scope(), &def.columns[..]) else {
            panic!("only single-key node indexes are created, found {def}");
        };
        for value in values {
            let via_index: BTreeSet<NodeId> = g
                .nodes_with_prop(label, key, value)
                .expect("indexed (label, key) must answer")
                .into_iter()
                .collect();
            let via_scan: BTreeSet<NodeId> = all
                .iter()
                .copied()
                .filter(|&id| {
                    g.node(id).is_some_and(|n| n.has_label(label))
                        && g.node(id)
                            .and_then(|n| n.props.get(key))
                            .cloned()
                            .is_some_and(|have| have.eq3(value) == Some(true))
                })
                .collect();
            assert_eq!(via_index, via_scan, "({label},{key}) diverged on {value}");
        }
    }
}

/// One table over `{node, rel} × {width 1, width 2}`: every shape walks
/// `create → duplicate → drop → unknown` through `execute` and answers
/// with the one definition value.
#[test]
fn execute_dispatches_index_ddl_in_every_shape() {
    let mut s = Session::new();
    s.run("CREATE (:M {name: 'a', k: 1})-[:T {w: 5, tag: 'x'}]->(:M {name: 'b', k: 2})")
        .unwrap();
    let install = |e: InstallError| Err(TriggerError::Install(e));
    for (def, eq, served) in [
        (
            IndexDef::node("M", &["name"]),
            vec![Value::str("a")],
            "MATCH (x:M {name: 'a'}) RETURN x",
        ),
        (
            IndexDef::node("M", &["name", "k"]),
            vec![Value::str("a"), Value::Int(1)],
            "MATCH (x:M {name: 'a', k: 1}) RETURN x",
        ),
        (
            IndexDef::rel("T", &["w"]),
            vec![Value::Int(5)],
            "MATCH ()-[r:T {w: 5}]->() RETURN r",
        ),
        (
            IndexDef::rel("T", &["tag", "w"]),
            vec![Value::str("x"), Value::Int(5)],
            "MATCH ()-[r:T {tag: 'x', w: 5}]->() RETURN r",
        ),
    ] {
        let (create, drop) = (
            format!("CREATE INDEX ON {def}"),
            format!("DROP INDEX ON {def}"),
        );
        assert_eq!(
            s.execute(&create),
            Ok(ExecResult::IndexCreated(def.clone()))
        );
        assert_eq!(s.indexes(), std::slice::from_ref(&def));
        assert_eq!(
            s.execute(&create),
            install(InstallError::DuplicateIndex(def.clone()))
        );
        // populated from the live extent, and serving matches
        let probe = IndexProbe {
            columns: &def.columns,
            eq: &eq,
            trailing: CompositeTrailing::None,
        };
        let hits = s.graph().probe(def.scope(), probe, ProbeMode::Count);
        assert_eq!(hits.map(|h| h.count()), Some(1), "{def}");
        assert_eq!(s.run(served).unwrap().rows.len(), 1, "{served}");
        assert_eq!(s.execute(&drop), Ok(ExecResult::IndexDropped(def.clone())));
        assert!(s.indexes().is_empty());
        assert_eq!(
            s.execute(&drop),
            install(InstallError::UnknownIndex(def.clone()))
        );
    }
    // the error texts name the operand the way the DDL spells it
    let def = IndexDef::rel("T", &["tag", "w"]);
    assert_eq!(
        InstallError::DuplicateIndex(def.clone()).to_string(),
        "index on -[:T(tag, w)]- already exists"
    );
    assert_eq!(
        InstallError::UnknownIndex(def).to_string(),
        "no index on -[:T(tag, w)]-"
    );
}

/// `Display` prints the DDL operand: `CREATE INDEX ON {def}` parses back
/// to `def` (identifier names, widths 1-3, both scopes); the dash-less
/// and quoted spellings name the same definitions.
#[test]
fn index_ddl_round_trips_the_definition() {
    for width in 1..=3 {
        let columns = &["a", "b", "c"][..width];
        for def in [IndexDef::node("L", columns), IndexDef::rel("T", columns)] {
            for (verb, create) in [("CREATE", true), ("DROP", false)] {
                assert_eq!(
                    parse_index_ddl(&format!("{verb} INDEX ON {def}")),
                    Ok(IndexDdl {
                        create,
                        def: def.clone()
                    })
                );
            }
        }
    }
    let def = |src: &str| parse_index_ddl(src).unwrap().def;
    assert_eq!(
        def("CREATE INDEX ON [:T(a, b)]"),
        IndexDef::rel("T", &["a", "b"])
    );
    assert_eq!(def("DROP INDEX ON 'L'(a);"), IndexDef::node("L", &["a"]));
}

/// Malformed is not duplicate: a repeated or missing column is a syntax
/// error naming the column, in both scopes and for both verbs; through
/// the API the store still just refuses.
#[test]
fn malformed_column_lists_are_syntax_errors() {
    let mut s = Session::new();
    for src in [
        "CREATE INDEX ON :L(x, x)",
        "DROP INDEX ON :L(x, y, x)",
        "CREATE INDEX ON -[:T(x, x)]-",
        "DROP INDEX ON [:T(y, x, x)]",
    ] {
        match s.execute(src) {
            Err(TriggerError::Install(InstallError::Syntax(msg))) => {
                assert!(msg.contains("'x' is repeated"), "{src}: {msg}")
            }
            other => panic!("{src}: unexpected {other:?}"),
        }
    }
    for src in ["CREATE INDEX ON :L()", "CREATE INDEX ON -[:T()]-"] {
        assert!(
            matches!(parse_index_ddl(src), Err(InstallError::Syntax(_))),
            "{src}"
        );
    }
    assert!(s.indexes().is_empty());
    let repeated = IndexDef::node("L", &["x", "x"]);
    assert!(!s.graph_mut().define_index(&repeated));
    assert!(!s
        .graph_mut()
        .define_index(&IndexDef::node("L", &[] as &[&str])));
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
    assert_eq!(s.graph().indexes(), [IndexDef::node("L", &["k"])]);
    s.execute("DROP INDEX ON :L(k)").unwrap();
    assert!(s.graph().indexes().is_empty());
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
        [
            IndexDef::node("Patient", &["name"]),
            IndexDef::node("Patient", &["ssn"]),
        ]
    );
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
fn schema_edge_index_props_index_relationships() {
    let mut s = Session::new();
    let gt = pg_schema::parse_graph_type(
        "CREATE GRAPH TYPE G LOOSE {
           (HospitalType: Hospital {name STRING}),
           (:HospitalType)-[CT: ConnectedTo {distance INT32 INDEX}]->(:HospitalType)
         }",
    )
    .unwrap();
    s.set_schema(gt);
    assert_eq!(s.indexes(), [IndexDef::rel("ConnectedTo", &["distance"])]);
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

/// Valid DDL the mutations start from: index definitions in every
/// spelling, and trigger definitions of the paper's shapes (every action
/// time, granularity, event kind, a condition pipeline, `REFERENCING`).
const VALID_DDL: [&str; 8] = [
    "CREATE INDEX ON :Patient(status, severity)",
    "DROP INDEX ON -[:TreatedAt(since, ward)]-;",
    "CREATE INDEX ON 'Lineage'(name)",
    "CREATE TRIGGER NewCriticalMutation AFTER CREATE ON 'Mutation' FOR EACH NODE \
     WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect) \
     BEGIN CREATE (:Alert {time: DATETIME(), desc: 'New critical mutation', mutation: NEW.name}) END",
    "CREATE TRIGGER NewCriticalLineage AFTER CREATE ON 'BelongsTo' FOR EACH RELATIONSHIP \
     WHEN MATCH (s:Sequence)-[NEW]-(l:Lineage) \
     WHERE EXISTS { MATCH (:CriticalEffect)-[:Risk]-(:Mutation)-[:FoundIn]-(s) } \
     BEGIN CREATE (:Alert {lineage: l.name}) END",
    "CREATE TRIGGER WhoDesignationChange AFTER SET ON 'Lineage'.'whoDesignation' FOR EACH NODE \
     WHEN OLD.whoDesignation <> NEW.whoDesignation BEGIN CREATE (:Alert) END",
    "CREATE TRIGGER IcuPatientsOverThreshold AFTER CREATE ON 'IcuPatient' FOR ALL NODES \
     WHEN MATCH (p:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'}) \
     WITH COUNT(DISTINCT p) AS icuPat WHERE icuPat > 50 \
     BEGIN CREATE (:Alert {n: icuPat}) END",
    "CREATE TRIGGER Audit ONCOMMIT DELETE ON 'Patient' REFERENCING OLDNODES AS gone \
     FOR ALL NODES BEGIN UNWIND gone AS g CREATE (:Log {id: g.id}) END",
];

/// Words and symbols of both DDLs and the lexer's edge cases.
const DDL_SOUP: [&str; 28] = [
    "CREATE", "DROP", "INDEX", "TRIGGER", "ON", "AFTER", "BEFORE", "ONCOMMIT", "DETACHED", "SET",
    "FOR", "EACH", "ALL", "NODE", "NODES", "WHEN", "BEGIN", "END", "'L'", ".", ":", "(", ")", "-[",
    "]-", ",", "'", "é",
];

/// `text` with its `at`-th space-separated token written twice.
fn with_token_duplicated(text: &str, at: usize) -> String {
    let tokens: Vec<&str> = text.split(' ').collect();
    let at = at % tokens.len();
    let mut out: Vec<&str> = tokens[..=at].to_vec();
    out.extend(&tokens[at..]);
    out.join(" ")
}

/// Both DDL parsers on `text`: each returns a value or an error whose
/// message renders.
fn parse_ddl(text: &str) {
    if let Err(e) = parse_index_ddl(text) {
        let _ = e.to_string();
    }
    if let Err(e) = parse_trigger_ddl(text) {
        let _ = e.to_string();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ddl_parsers_never_panic_on_arbitrary_text(text in "[ -~é\n]{0,48}") {
        parse_ddl(&text);
    }

    #[test]
    fn ddl_parsers_never_panic_on_token_soup(picks in proptest::collection::vec(0usize..28, 0..32)) {
        let words: Vec<&str> = picks.iter().map(|&i| DDL_SOUP[i]).collect();
        parse_ddl(&words.join(" "));
        parse_ddl(&words.concat());
    }

    #[test]
    fn ddl_parsers_never_panic_on_mutated_valid_ddl(pick in 0usize..8, at in 0usize..64) {
        let valid = VALID_DDL[pick];
        if let (Err(index), Err(trigger)) = (parse_index_ddl(valid), parse_trigger_ddl(valid)) {
            return Err(TestCaseError::fail(format!("`{valid}`: {index}; {trigger}")));
        }
        for text in [valid.to_string(), with_token_duplicated(valid, at)] {
            for (cut, _) in text.char_indices() {
                parse_ddl(&text[..cut]);
            }
            parse_ddl(&text);
        }
    }
}
