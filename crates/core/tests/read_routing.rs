//! Read-routing soundness (ROADMAP 5c). The wire server sends a statement
//! to a lock-free snapshot iff [`Prepared::is_snapshot_read`], decided
//! once per text and reused for every execution — so the predicate is a
//! safety boundary. Pinned here: the class and route of every statement
//! shape, and a differential check that whatever is routed to a snapshot
//! leaves the store byte-identical when forced through the writer.

use pg_cypher::{parse_query_lenient, Params, Prepared, StatementClass};
use pg_triggers::Session;
use StatementClass::{Explain, IndexDdl, Query, TriggerDdl};

/// `(text, expected class, expected to run on a snapshot)`.
const SHAPES: &[(&str, StatementClass, bool)] = &[
    ("MATCH (p:P) RETURN p.k AS k", Query, true),
    (
        "MATCH (p:P) WHERE p.k > 0 WITH count(p) AS n RETURN n",
        Query,
        true,
    ),
    ("UNWIND [1, 2] AS x RETURN x", Query, true),
    (
        "MATCH (p:P) WHERE EXISTS { MATCH (p)-[:R]->(:Q) } RETURN p",
        Query,
        true,
    ),
    ("OPTIONAL MATCH (p:P)-[:R]->(q:Q) RETURN p, q", Query, true),
    ("MATCH (p:P) SET p.k = 7", Query, false),
    ("MATCH (p:P) SET p:Seen", Query, false),
    ("MATCH (p:P) REMOVE p.k", Query, false),
    ("MATCH (p:P)-[r:R]->() DELETE r", Query, false),
    ("MATCH (p:P) DETACH DELETE p", Query, false),
    ("MERGE (:P {k: 9})", Query, false),
    ("CREATE (:P {k: 3})", Query, false),
    ("MATCH (p:P) CREATE (p)-[:R]->(:Q) RETURN p", Query, false),
    ("MATCH (p:P) FOREACH (x IN [1] | SET p.k = x)", Query, false),
    (
        "MATCH (p:P) FOREACH (x IN [1] | FOREACH (y IN [2] | CREATE (:Q {v: y})))",
        Query,
        false,
    ),
    (
        "CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE BEGIN CREATE (:Echo) END",
        TriggerDdl,
        false,
    ),
    ("drop trigger T", TriggerDdl, false),
    ("CREATE INDEX ON :P(k)", IndexDdl, false),
    ("DROP INDEX ON :P(k)", IndexDdl, false),
    ("EXPLAIN MATCH (p:P) RETURN p", Explain, false),
    ("EXPLAIN MATCH (p:P) SET p.k = 1", Explain, false),
];

fn populated() -> Session {
    let mut s = Session::new();
    s.run("CREATE (:P {k: 1})-[:R]->(:Q), (:P {k: 2}), (:P)")
        .unwrap();
    s
}

fn store_bytes(s: &Session) -> Vec<u8> {
    pg_wal::encode_snapshot(s.graph(), 0)
}

#[test]
fn every_statement_shape_has_its_class_and_route() {
    for &(text, class, snapshot_read) in SHAPES {
        let stmt = Prepared::new(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(stmt.class(), class, "{text}");
        assert_eq!(stmt.is_snapshot_read(), snapshot_read, "{text}");
        // The stored answer is the AST's own; DDL always updates.
        let ast_says = stmt.query().is_updating();
        let expected = matches!(class, TriggerDdl | IndexDdl) || ast_says;
        assert_eq!(stmt.is_updating(), expected, "{text}");
    }
}

#[test]
fn the_papers_block_punctuation_is_an_updating_clause_too() {
    // Trigger bodies are parsed in the lenient mode; the paper's `THEN
    // FOREACH (…) BEGIN … END` hides its updates one level down.
    let body = parse_query_lenient(
        "MATCH (p:P) WITH collect(p) AS ps
         THEN FOREACH (q IN ps)
         BEGIN
           MATCH (q)-[r:R]->() DELETE r
         END",
    )
    .unwrap();
    let stmt = Prepared::from(body);
    assert_eq!(stmt.class(), Query);
    assert!(stmt.is_updating());
    assert!(!stmt.is_snapshot_read());
}

#[test]
fn statements_routed_to_a_snapshot_leave_the_store_byte_identical() {
    let mut s = populated();
    let mut reads = 0;
    for &(text, _, snapshot_read) in SHAPES {
        if !snapshot_read {
            continue;
        }
        reads += 1;
        let before = store_bytes(&s);
        let stmt = s.prepare(text).unwrap();
        // Forced through the writer, twice: a cached preparation must be
        // as harmless as a fresh one.
        for _ in 0..2 {
            s.run_prepared(&stmt, Vec::new(), &Params::new())
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(store_bytes(&s), before, "{text} changed the store");
        }
    }
    assert!(reads >= 5, "the table lost its read-only shapes");
}

#[test]
fn explain_never_changes_the_store_either() {
    let mut s = populated();
    let before = store_bytes(&s);
    for &(text, class, _) in SHAPES {
        if class == Explain {
            s.execute(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(store_bytes(&s), before, "{text} changed the store");
        }
    }
}

#[test]
fn the_oracle_sees_what_the_writer_route_does() {
    // Each updating query shape changes the bytes of a store it matches
    // in — the differential check above is not vacuous.
    for &(text, class, _) in SHAPES {
        let stmt = Prepared::new(text).unwrap();
        if class != Query || !stmt.is_updating() {
            continue;
        }
        let mut s = populated();
        let before = store_bytes(&s);
        s.run_prepared(&stmt, Vec::new(), &Params::new())
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_ne!(store_bytes(&s), before, "{text} left the store alone");
    }
}
