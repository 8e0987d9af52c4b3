//! Golden translations (paper Figures 2 and 3): the exact
//! `pg_apoc::translate` output (`statement`, `phase`, `warnings`) and
//! `pg_memgraph::translate` output (`ddl`, `phase`, `warnings`) for the
//! seven §6.2 triggers and for every event kind × granularity × condition
//! shape (none, bare predicate, pipeline), plus the action-time mappings,
//! `REFERENCING` renames and string escaping.
//!
//! Any change to the translated text shows up here as a diff of the
//! expected strings below; a deliberate change updates them in the same
//! commit. A mismatch prints the trigger, the expected and the actual text.

use pg_triggers::{parse_trigger_ddl, DdlStatement, TriggerSpec};

fn spec(ddl: &str) -> TriggerSpec {
    match parse_trigger_ddl(ddl).unwrap() {
        DdlStatement::CreateTrigger(s) => s,
        other => panic!("expected CREATE TRIGGER, got {other:?}"),
    }
}

/// Both translations of `ddl`, one field per line.
fn render(ddl: &str) -> String {
    let s = spec(ddl);
    let apoc = match pg_apoc::translate(&s) {
        Ok(i) => format!("apoc {}\n{}\n{:?}", i.phase.name(), i.statement, i.warnings),
        Err(e) => format!("apoc {e}"),
    };
    let mg = match pg_memgraph::translate(&s) {
        Ok(i) => format!("memgraph {:?}\n{}\n{:?}", i.phase, i.ddl, i.warnings),
        Err(e) => format!("memgraph {e}"),
    };
    format!("{apoc}\n{mg}")
}

fn check(cases: impl IntoIterator<Item = (&'static str, &'static str)>) {
    let mut failed = Vec::new();
    for (ddl, expected) in cases {
        let actual = render(ddl);
        if actual != expected {
            failed.push(format!(
                "trigger:\n{ddl}\nexpected:\n{expected}\nactual:\n{actual}\n"
            ));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

#[test]
fn paper_triggers_translate_to_the_golden_text() {
    check(pg_covid::triggers::PAPER_TRIGGERS.into_iter().zip(PAPER));
}

#[test]
fn event_kind_grid_translates_to_the_golden_text() {
    check(GRID.iter().copied());
}

#[test]
fn grid_covers_every_translatable_shape() {
    // 6 item/label kinds × 2 granularities + 4 property kinds × FOR EACH,
    // each × {no condition, bare predicate, pipeline}; then the extras.
    assert_eq!(GRID.len(), (6 * 2 + 4) * 3 + 8);
}

// The tables below were generated from the translators' output; keep the
// expected strings verbatim (raw literals, one line per field).

const PAPER: [&str; 7] = [
    r#"apoc afterAsync
UNWIND $createdNodes AS cNodes CALL apoc.do.when((cNodes:Mutation AND EXISTS { MATCH (cNodes)-[:Risk]-(:CriticalEffect) }), 'CREATE (:Alert {time: datetime(), desc: \'New critical mutation\', mutation: cNodes.name})', '', {cNodes: cNodes}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER NewCriticalMutation ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode WITH *, CASE WHEN (('Mutation' IN labels(newNode)) AND EXISTS { MATCH (newNode)-[:Risk]-(:CriticalEffect) }) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Alert {time: datetime(), desc: 'New critical mutation', mutation: newNode.name})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    r#"apoc afterAsync
UNWIND $createdRelationships AS cRels MATCH (s:Sequence)-[cRels]-(l:Lineage) WHERE EXISTS { MATCH (:CriticalEffect)-[:Risk]-(:Mutation)-[:FoundIn]-(s) } CALL apoc.do.when((type(cRels) = 'BelongsTo'), 'CREATE (:Alert {time: datetime(), desc: \'New critical lineage\', lineage: l.name})', '', {cRels: cRels, l: l}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER NewCriticalLineage ON --> CREATE AFTER COMMIT EXECUTE UNWIND createdEdges AS newEdge MATCH (s:Sequence)-[newEdge]-(l:Lineage) WHERE EXISTS { MATCH (:CriticalEffect)-[:Risk]-(:Mutation)-[:FoundIn]-(s) } WITH *, CASE WHEN (type(newEdge) = 'BelongsTo') THEN newEdge END AS flag WHERE flag IS NOT NULL CREATE (:Alert {time: datetime(), desc: 'New critical lineage', lineage: l.name})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    r#"apoc afterAsync
UNWIND $assignedNodeProperties['whoDesignation'] AS aProp WITH aProp.node AS node, {whoDesignation: aProp.old} AS oldProps CALL apoc.do.when((node:Lineage AND (oldProps.whoDesignation <> node.whoDesignation)), 'CREATE (:Alert {time: datetime(), desc: \'New Designation for an existing Lineage\'})', '', {node: node, oldProps: oldProps}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER WhoDesignationChange ON () UPDATE AFTER COMMIT EXECUTE UNWIND setVertexProperties AS pe WITH pe WHERE pe.key = 'whoDesignation' WITH pe.vertex AS newNode, {whoDesignation: pe.old_value} AS oldProps WITH *, CASE WHEN (('Lineage' IN labels(newNode)) AND (oldProps.whoDesignation <> newNode.whoDesignation)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Alert {time: datetime(), desc: 'New Designation for an existing Lineage'})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    r#"apoc afterAsync
UNWIND $createdNodes AS cNodes WITH cNodes WHERE cNodes:IcuPatient WITH collect(cNodes) AS cNodesList MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'}) WITH count(DISTINCT p) AS icuPat, cNodesList WHERE (icuPat > 50) CALL apoc.do.when((size(cNodesList) > 0), 'CREATE (:Alert {time: datetime(), desc: \'ICU patients at Sacco Hospital are more than 50\'})', '', {cNodesList: cNodesList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER IcuPatientsOverThreshold ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode WITH newNode WHERE ('IcuPatient' IN labels(newNode)) WITH collect(newNode) AS newNodeList MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'}) WITH count(DISTINCT p) AS icuPat, newNodeList WHERE (icuPat > 50) WITH *, CASE WHEN (size(newNodeList) > 0) THEN newNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Alert {time: datetime(), desc: 'ICU patients at Sacco Hospital are more than 50'})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    r#"apoc afterAsync
UNWIND $createdNodes AS cNodes WITH cNodes WHERE cNodes:IcuPatient WITH collect(cNodes) AS cNodesList MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'}) MATCH (pn:cNodesList)-[:TreatedAt]-(:Hospital {name: 'Sacco'}) WITH count(DISTINCT pn) AS NewIcuPat, count(DISTINCT p) AS TotalIcuPat, cNodesList WHERE (((NewIcuPat * 1.0) / TotalIcuPat) > 0.1) CALL apoc.do.when((size(cNodesList) > 0), 'CREATE (:Alert {time: datetime(), desc: \'ICU patients at Sacco Hospital have increased by > 10%\'})', '', {cNodesList: cNodesList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER IcuPatientIncrease ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode WITH newNode WHERE ('IcuPatient' IN labels(newNode)) WITH collect(newNode) AS newNodeList MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'}) MATCH (pn:newNodeList)-[:TreatedAt]-(:Hospital {name: 'Sacco'}) WITH count(DISTINCT pn) AS NewIcuPat, count(DISTINCT p) AS TotalIcuPat, newNodeList WHERE (((NewIcuPat * 1.0) / TotalIcuPat) > 0.1) WITH *, CASE WHEN (size(newNodeList) > 0) THEN newNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Alert {time: datetime(), desc: 'ICU patients at Sacco Hospital have increased by > 10%'})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    r#"apoc afterAsync
UNWIND $createdNodes AS cNodes WITH cNodes WHERE cNodes:IcuPatient WITH collect(cNodes) AS cNodesList MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(h:Hospital {name: 'Sacco'}) WITH count(DISTINCT p) AS TotalIcuPat, h, cNodesList WHERE (TotalIcuPat > h.icuBeds) CALL apoc.do.when((size(cNodesList) > 0), 'MATCH (ht:Hospital {name: \'Meyer\'}) MATCH (pn:cNodesList)-[:TreatedAt]-(:Hospital {name: \'Sacco\'}) OPTIONAL MATCH (pt:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(ht) WITH collect(DISTINCT pn) AS movers, count(DISTINCT pt) AS MeyerICU, ht WHERE ((size(movers) + MeyerICU) <= ht.icuBeds) FOREACH (p IN movers | MATCH (p)-[c:TreatedAt]-(:Hospital {name: \'Sacco\'}) DELETE c CREATE (p)-[:TreatedAt]->(ht))', '', {cNodesList: cNodesList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER IcuPatientMove ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode WITH newNode WHERE ('IcuPatient' IN labels(newNode)) WITH collect(newNode) AS newNodeList MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(h:Hospital {name: 'Sacco'}) WITH count(DISTINCT p) AS TotalIcuPat, h, newNodeList WHERE (TotalIcuPat > h.icuBeds) WITH *, CASE WHEN (size(newNodeList) > 0) THEN newNodeList END AS flag WHERE flag IS NOT NULL MATCH (ht:Hospital {name: 'Meyer'}) MATCH (pn:newNodeList)-[:TreatedAt]-(:Hospital {name: 'Sacco'}) OPTIONAL MATCH (pt:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(ht) WITH collect(DISTINCT pn) AS movers, count(DISTINCT pt) AS MeyerICU, ht WHERE ((size(movers) + MeyerICU) <= ht.icuBeds) FOREACH (p IN movers | MATCH (p)-[c:TreatedAt]-(:Hospital {name: 'Sacco'}) DELETE c CREATE (p)-[:TreatedAt]->(ht))
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    r#"apoc afterAsync
UNWIND $createdNodes AS cNodes MATCH (cNodes:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(h:Hospital)-[:LocatedIn]-(:Region {name: 'Lombardy'}) MATCH (p:IcuPatient)-[:TreatedAt]-(h) WITH count(DISTINCT p) AS TotalIcuPat, h, cNodes WHERE (TotalIcuPat > h.icuBeds) CALL apoc.do.when(cNodes:IcuPatient, 'MATCH (pn:cNodes)-[c:TreatedAt]-(h)-[ct:ConnectedTo]-(hc:Hospital) WITH ct, c, hc, pn ORDER BY ct.distance LIMIT 1 DELETE c CREATE (pn)-[:TreatedAt]->(hc)', '', {cNodes: cNodes, h: h}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER MoveToNearHospital ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode MATCH (newNode:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(h:Hospital)-[:LocatedIn]-(:Region {name: 'Lombardy'}) MATCH (p:IcuPatient)-[:TreatedAt]-(h) WITH count(DISTINCT p) AS TotalIcuPat, h, newNode WHERE (TotalIcuPat > h.icuBeds) WITH *, CASE WHEN ('IcuPatient' IN labels(newNode)) THEN newNode END AS flag WHERE flag IS NOT NULL MATCH (pn:newNode)-[c:TreatedAt]-(h)-[ct:ConnectedTo]-(hc:Hospital) WITH ct, c, hc, pn ORDER BY ct.distance LIMIT 1 DELETE c CREATE (pn)-[:TreatedAt]->(hc)
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
];

const GRID: &[(&str, &str)] = &[
    (
        "CREATE TRIGGER t AFTER CREATE ON 'L' FOR EACH NODE BEGIN CREATE (:Probe {v: NEW.p}) END",
        r#"apoc afterAsync
UNWIND $createdNodes AS cNodes CALL apoc.do.when(cNodes:L, 'CREATE (:Probe {v: cNodes.p})', '', {cNodes: cNodes}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode WITH *, CASE WHEN ('L' IN labels(newNode)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newNode.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'L' FOR EACH NODE WHEN NEW.p > 0 BEGIN CREATE (:Probe {v: NEW.p}) END",
        r#"apoc afterAsync
UNWIND $createdNodes AS cNodes CALL apoc.do.when((cNodes:L AND (cNodes.p > 0)), 'CREATE (:Probe {v: cNodes.p})', '', {cNodes: cNodes}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode WITH *, CASE WHEN (('L' IN labels(newNode)) AND (newNode.p > 0)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newNode.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'L' FOR EACH NODE WHEN MATCH (q:Q) WHERE q.k = NEW.k WITH count(q) AS n WHERE n > 0 BEGIN CREATE (:Probe {v: NEW.p, n: n}) END",
        r#"apoc afterAsync
UNWIND $createdNodes AS cNodes MATCH (q:Q) WHERE (q.k = cNodes.k) WITH count(q) AS n, cNodes WHERE (n > 0) CALL apoc.do.when(cNodes:L, 'CREATE (:Probe {v: cNodes.p, n: n})', '', {cNodes: cNodes, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode MATCH (q:Q) WHERE (q.k = newNode.k) WITH count(q) AS n, newNode WHERE (n > 0) WITH *, CASE WHEN ('L' IN labels(newNode)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newNode.p, n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'L' FOR ALL NODES BEGIN CREATE (:Probe {v: size(NEWNODES)}) END",
        r#"apoc afterAsync
UNWIND $createdNodes AS cNodes WITH cNodes WHERE cNodes:L WITH collect(cNodes) AS cNodesList CALL apoc.do.when((size(cNodesList) > 0), 'CREATE (:Probe {v: size(cNodesList)})', '', {cNodesList: cNodesList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode WITH newNode WHERE ('L' IN labels(newNode)) WITH collect(newNode) AS newNodeList WITH *, CASE WHEN (size(newNodeList) > 0) THEN newNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(newNodeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'L' FOR ALL NODES WHEN size(NEWNODES) > 1 BEGIN CREATE (:Probe {v: size(NEWNODES)}) END",
        r#"apoc afterAsync
UNWIND $createdNodes AS cNodes WITH cNodes WHERE cNodes:L WITH collect(cNodes) AS cNodesList CALL apoc.do.when(((size(cNodesList) > 0) AND (size(cNodesList) > 1)), 'CREATE (:Probe {v: size(cNodesList)})', '', {cNodesList: cNodesList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode WITH newNode WHERE ('L' IN labels(newNode)) WITH collect(newNode) AS newNodeList WITH *, CASE WHEN ((size(newNodeList) > 0) AND (size(newNodeList) > 1)) THEN newNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(newNodeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'L' FOR ALL NODES WHEN MATCH (q:Q) WITH count(q) AS n WHERE n > size(NEWNODES) BEGIN CREATE (:Probe {v: size(NEWNODES), n: n}) END",
        r#"apoc afterAsync
UNWIND $createdNodes AS cNodes WITH cNodes WHERE cNodes:L WITH collect(cNodes) AS cNodesList MATCH (q:Q) WITH count(q) AS n, cNodesList WHERE (n > size(cNodesList)) CALL apoc.do.when((size(cNodesList) > 0), 'CREATE (:Probe {v: size(cNodesList), n: n})', '', {cNodesList: cNodesList, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode WITH newNode WHERE ('L' IN labels(newNode)) WITH collect(newNode) AS newNodeList MATCH (q:Q) WITH count(q) AS n, newNodeList WHERE (n > size(newNodeList)) WITH *, CASE WHEN (size(newNodeList) > 0) THEN newNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(newNodeList), n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER DELETE ON 'L' FOR EACH NODE BEGIN CREATE (:Probe {v: OLD.p}) END",
        r#"apoc afterAsync
UNWIND $deletedNodes AS dNodes CALL apoc.do.when(('L' IN dNodes.__labels), 'CREATE (:Probe {v: dNodes.p})', '', {dNodes: dNodes}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () DELETE AFTER COMMIT EXECUTE UNWIND deletedVertices AS oldNode WITH *, CASE WHEN ('L' IN oldNode.__labels) THEN oldNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldNode.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER DELETE ON 'L' FOR EACH NODE WHEN OLD.p > 0 BEGIN CREATE (:Probe {v: OLD.p}) END",
        r#"apoc afterAsync
UNWIND $deletedNodes AS dNodes CALL apoc.do.when((('L' IN dNodes.__labels) AND (dNodes.p > 0)), 'CREATE (:Probe {v: dNodes.p})', '', {dNodes: dNodes}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () DELETE AFTER COMMIT EXECUTE UNWIND deletedVertices AS oldNode WITH *, CASE WHEN (('L' IN oldNode.__labels) AND (oldNode.p > 0)) THEN oldNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldNode.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER DELETE ON 'L' FOR EACH NODE WHEN MATCH (q:Q) WHERE q.k = OLD.k WITH count(q) AS n WHERE n > 0 BEGIN CREATE (:Probe {v: OLD.p, n: n}) END",
        r#"apoc afterAsync
UNWIND $deletedNodes AS dNodes MATCH (q:Q) WHERE (q.k = dNodes.k) WITH count(q) AS n, dNodes WHERE (n > 0) CALL apoc.do.when(('L' IN dNodes.__labels), 'CREATE (:Probe {v: dNodes.p, n: n})', '', {dNodes: dNodes, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () DELETE AFTER COMMIT EXECUTE UNWIND deletedVertices AS oldNode MATCH (q:Q) WHERE (q.k = oldNode.k) WITH count(q) AS n, oldNode WHERE (n > 0) WITH *, CASE WHEN ('L' IN oldNode.__labels) THEN oldNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldNode.p, n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER DELETE ON 'L' FOR ALL NODES BEGIN CREATE (:Probe {v: size(OLDNODES)}) END",
        r#"apoc afterAsync
UNWIND $deletedNodes AS dNodes WITH dNodes WHERE ('L' IN dNodes.__labels) WITH collect(dNodes) AS dNodesList CALL apoc.do.when((size(dNodesList) > 0), 'CREATE (:Probe {v: size(dNodesList)})', '', {dNodesList: dNodesList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () DELETE AFTER COMMIT EXECUTE UNWIND deletedVertices AS oldNode WITH oldNode WHERE ('L' IN oldNode.__labels) WITH collect(oldNode) AS oldNodeList WITH *, CASE WHEN (size(oldNodeList) > 0) THEN oldNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(oldNodeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER DELETE ON 'L' FOR ALL NODES WHEN size(OLDNODES) > 1 BEGIN CREATE (:Probe {v: size(OLDNODES)}) END",
        r#"apoc afterAsync
UNWIND $deletedNodes AS dNodes WITH dNodes WHERE ('L' IN dNodes.__labels) WITH collect(dNodes) AS dNodesList CALL apoc.do.when(((size(dNodesList) > 0) AND (size(dNodesList) > 1)), 'CREATE (:Probe {v: size(dNodesList)})', '', {dNodesList: dNodesList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () DELETE AFTER COMMIT EXECUTE UNWIND deletedVertices AS oldNode WITH oldNode WHERE ('L' IN oldNode.__labels) WITH collect(oldNode) AS oldNodeList WITH *, CASE WHEN ((size(oldNodeList) > 0) AND (size(oldNodeList) > 1)) THEN oldNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(oldNodeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER DELETE ON 'L' FOR ALL NODES WHEN MATCH (q:Q) WITH count(q) AS n WHERE n > size(OLDNODES) BEGIN CREATE (:Probe {v: size(OLDNODES), n: n}) END",
        r#"apoc afterAsync
UNWIND $deletedNodes AS dNodes WITH dNodes WHERE ('L' IN dNodes.__labels) WITH collect(dNodes) AS dNodesList MATCH (q:Q) WITH count(q) AS n, dNodesList WHERE (n > size(dNodesList)) CALL apoc.do.when((size(dNodesList) > 0), 'CREATE (:Probe {v: size(dNodesList), n: n})', '', {dNodesList: dNodesList, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () DELETE AFTER COMMIT EXECUTE UNWIND deletedVertices AS oldNode WITH oldNode WHERE ('L' IN oldNode.__labels) WITH collect(oldNode) AS oldNodeList MATCH (q:Q) WITH count(q) AS n, oldNodeList WHERE (n > size(oldNodeList)) WITH *, CASE WHEN (size(oldNodeList) > 0) THEN oldNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(oldNodeList), n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'R' FOR EACH RELATIONSHIP BEGIN CREATE (:Probe {v: NEW.p}) END",
        r#"apoc afterAsync
UNWIND $createdRelationships AS cRels CALL apoc.do.when((type(cRels) = 'R'), 'CREATE (:Probe {v: cRels.p})', '', {cRels: cRels}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> CREATE AFTER COMMIT EXECUTE UNWIND createdEdges AS newEdge WITH *, CASE WHEN (type(newEdge) = 'R') THEN newEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newEdge.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'R' FOR EACH RELATIONSHIP WHEN NEW.p > 0 BEGIN CREATE (:Probe {v: NEW.p}) END",
        r#"apoc afterAsync
UNWIND $createdRelationships AS cRels CALL apoc.do.when(((type(cRels) = 'R') AND (cRels.p > 0)), 'CREATE (:Probe {v: cRels.p})', '', {cRels: cRels}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> CREATE AFTER COMMIT EXECUTE UNWIND createdEdges AS newEdge WITH *, CASE WHEN ((type(newEdge) = 'R') AND (newEdge.p > 0)) THEN newEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newEdge.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'R' FOR EACH RELATIONSHIP WHEN MATCH (q:Q) WHERE q.k = NEW.k WITH count(q) AS n WHERE n > 0 BEGIN CREATE (:Probe {v: NEW.p, n: n}) END",
        r#"apoc afterAsync
UNWIND $createdRelationships AS cRels MATCH (q:Q) WHERE (q.k = cRels.k) WITH count(q) AS n, cRels WHERE (n > 0) CALL apoc.do.when((type(cRels) = 'R'), 'CREATE (:Probe {v: cRels.p, n: n})', '', {cRels: cRels, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> CREATE AFTER COMMIT EXECUTE UNWIND createdEdges AS newEdge MATCH (q:Q) WHERE (q.k = newEdge.k) WITH count(q) AS n, newEdge WHERE (n > 0) WITH *, CASE WHEN (type(newEdge) = 'R') THEN newEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newEdge.p, n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'R' FOR ALL RELATIONSHIPS BEGIN CREATE (:Probe {v: size(NEWRELS)}) END",
        r#"apoc afterAsync
UNWIND $createdRelationships AS cRels WITH cRels WHERE (type(cRels) = 'R') WITH collect(cRels) AS cRelsList CALL apoc.do.when((size(cRelsList) > 0), 'CREATE (:Probe {v: size(cRelsList)})', '', {cRelsList: cRelsList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> CREATE AFTER COMMIT EXECUTE UNWIND createdEdges AS newEdge WITH newEdge WHERE (type(newEdge) = 'R') WITH collect(newEdge) AS newEdgeList WITH *, CASE WHEN (size(newEdgeList) > 0) THEN newEdgeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(newEdgeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'R' FOR ALL RELATIONSHIPS WHEN size(NEWRELS) > 1 BEGIN CREATE (:Probe {v: size(NEWRELS)}) END",
        r#"apoc afterAsync
UNWIND $createdRelationships AS cRels WITH cRels WHERE (type(cRels) = 'R') WITH collect(cRels) AS cRelsList CALL apoc.do.when(((size(cRelsList) > 0) AND (size(cRelsList) > 1)), 'CREATE (:Probe {v: size(cRelsList)})', '', {cRelsList: cRelsList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> CREATE AFTER COMMIT EXECUTE UNWIND createdEdges AS newEdge WITH newEdge WHERE (type(newEdge) = 'R') WITH collect(newEdge) AS newEdgeList WITH *, CASE WHEN ((size(newEdgeList) > 0) AND (size(newEdgeList) > 1)) THEN newEdgeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(newEdgeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'R' FOR ALL RELATIONSHIPS WHEN MATCH (q:Q) WITH count(q) AS n WHERE n > size(NEWRELS) BEGIN CREATE (:Probe {v: size(NEWRELS), n: n}) END",
        r#"apoc afterAsync
UNWIND $createdRelationships AS cRels WITH cRels WHERE (type(cRels) = 'R') WITH collect(cRels) AS cRelsList MATCH (q:Q) WITH count(q) AS n, cRelsList WHERE (n > size(cRelsList)) CALL apoc.do.when((size(cRelsList) > 0), 'CREATE (:Probe {v: size(cRelsList), n: n})', '', {cRelsList: cRelsList, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> CREATE AFTER COMMIT EXECUTE UNWIND createdEdges AS newEdge WITH newEdge WHERE (type(newEdge) = 'R') WITH collect(newEdge) AS newEdgeList MATCH (q:Q) WITH count(q) AS n, newEdgeList WHERE (n > size(newEdgeList)) WITH *, CASE WHEN (size(newEdgeList) > 0) THEN newEdgeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(newEdgeList), n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER DELETE ON 'R' FOR EACH RELATIONSHIP BEGIN CREATE (:Probe {v: OLD.p}) END",
        r#"apoc afterAsync
UNWIND $deletedRelationships AS dRels CALL apoc.do.when((dRels.__type = 'R'), 'CREATE (:Probe {v: dRels.p})', '', {dRels: dRels}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> DELETE AFTER COMMIT EXECUTE UNWIND deletedEdges AS oldEdge WITH *, CASE WHEN (oldEdge.__type = 'R') THEN oldEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldEdge.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER DELETE ON 'R' FOR EACH RELATIONSHIP WHEN OLD.p > 0 BEGIN CREATE (:Probe {v: OLD.p}) END",
        r#"apoc afterAsync
UNWIND $deletedRelationships AS dRels CALL apoc.do.when(((dRels.__type = 'R') AND (dRels.p > 0)), 'CREATE (:Probe {v: dRels.p})', '', {dRels: dRels}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> DELETE AFTER COMMIT EXECUTE UNWIND deletedEdges AS oldEdge WITH *, CASE WHEN ((oldEdge.__type = 'R') AND (oldEdge.p > 0)) THEN oldEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldEdge.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER DELETE ON 'R' FOR EACH RELATIONSHIP WHEN MATCH (q:Q) WHERE q.k = OLD.k WITH count(q) AS n WHERE n > 0 BEGIN CREATE (:Probe {v: OLD.p, n: n}) END",
        r#"apoc afterAsync
UNWIND $deletedRelationships AS dRels MATCH (q:Q) WHERE (q.k = dRels.k) WITH count(q) AS n, dRels WHERE (n > 0) CALL apoc.do.when((dRels.__type = 'R'), 'CREATE (:Probe {v: dRels.p, n: n})', '', {dRels: dRels, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> DELETE AFTER COMMIT EXECUTE UNWIND deletedEdges AS oldEdge MATCH (q:Q) WHERE (q.k = oldEdge.k) WITH count(q) AS n, oldEdge WHERE (n > 0) WITH *, CASE WHEN (oldEdge.__type = 'R') THEN oldEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldEdge.p, n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER DELETE ON 'R' FOR ALL RELATIONSHIPS BEGIN CREATE (:Probe {v: size(OLDRELS)}) END",
        r#"apoc afterAsync
UNWIND $deletedRelationships AS dRels WITH dRels WHERE (dRels.__type = 'R') WITH collect(dRels) AS dRelsList CALL apoc.do.when((size(dRelsList) > 0), 'CREATE (:Probe {v: size(dRelsList)})', '', {dRelsList: dRelsList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> DELETE AFTER COMMIT EXECUTE UNWIND deletedEdges AS oldEdge WITH oldEdge WHERE (oldEdge.__type = 'R') WITH collect(oldEdge) AS oldEdgeList WITH *, CASE WHEN (size(oldEdgeList) > 0) THEN oldEdgeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(oldEdgeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER DELETE ON 'R' FOR ALL RELATIONSHIPS WHEN size(OLDRELS) > 1 BEGIN CREATE (:Probe {v: size(OLDRELS)}) END",
        r#"apoc afterAsync
UNWIND $deletedRelationships AS dRels WITH dRels WHERE (dRels.__type = 'R') WITH collect(dRels) AS dRelsList CALL apoc.do.when(((size(dRelsList) > 0) AND (size(dRelsList) > 1)), 'CREATE (:Probe {v: size(dRelsList)})', '', {dRelsList: dRelsList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> DELETE AFTER COMMIT EXECUTE UNWIND deletedEdges AS oldEdge WITH oldEdge WHERE (oldEdge.__type = 'R') WITH collect(oldEdge) AS oldEdgeList WITH *, CASE WHEN ((size(oldEdgeList) > 0) AND (size(oldEdgeList) > 1)) THEN oldEdgeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(oldEdgeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER DELETE ON 'R' FOR ALL RELATIONSHIPS WHEN MATCH (q:Q) WITH count(q) AS n WHERE n > size(OLDRELS) BEGIN CREATE (:Probe {v: size(OLDRELS), n: n}) END",
        r#"apoc afterAsync
UNWIND $deletedRelationships AS dRels WITH dRels WHERE (dRels.__type = 'R') WITH collect(dRels) AS dRelsList MATCH (q:Q) WITH count(q) AS n, dRelsList WHERE (n > size(dRelsList)) CALL apoc.do.when((size(dRelsList) > 0), 'CREATE (:Probe {v: size(dRelsList), n: n})', '', {dRelsList: dRelsList, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> DELETE AFTER COMMIT EXECUTE UNWIND deletedEdges AS oldEdge WITH oldEdge WHERE (oldEdge.__type = 'R') WITH collect(oldEdge) AS oldEdgeList MATCH (q:Q) WITH count(q) AS n, oldEdgeList WHERE (n > size(oldEdgeList)) WITH *, CASE WHEN (size(oldEdgeList) > 0) THEN oldEdgeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(oldEdgeList), n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'L' FOR EACH NODE BEGIN CREATE (:Probe {v: NEW.p}) END",
        r#"apoc afterAsync
UNWIND $assignedLabels['L'] AS cNodes CALL apoc.do.when(true, 'CREATE (:Probe {v: cNodes.p})', '', {cNodes: cNodes}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND setVertexLabels AS lblGroup WITH lblGroup WHERE lblGroup.label = 'L' UNWIND lblGroup.vertices AS newNode WITH *, CASE WHEN true THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newNode.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'L' FOR EACH NODE WHEN NEW.p > 0 BEGIN CREATE (:Probe {v: NEW.p}) END",
        r#"apoc afterAsync
UNWIND $assignedLabels['L'] AS cNodes CALL apoc.do.when((true AND (cNodes.p > 0)), 'CREATE (:Probe {v: cNodes.p})', '', {cNodes: cNodes}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND setVertexLabels AS lblGroup WITH lblGroup WHERE lblGroup.label = 'L' UNWIND lblGroup.vertices AS newNode WITH *, CASE WHEN (true AND (newNode.p > 0)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newNode.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'L' FOR EACH NODE WHEN MATCH (q:Q) WHERE q.k = NEW.k WITH count(q) AS n WHERE n > 0 BEGIN CREATE (:Probe {v: NEW.p, n: n}) END",
        r#"apoc afterAsync
UNWIND $assignedLabels['L'] AS cNodes MATCH (q:Q) WHERE (q.k = cNodes.k) WITH count(q) AS n, cNodes WHERE (n > 0) CALL apoc.do.when(true, 'CREATE (:Probe {v: cNodes.p, n: n})', '', {cNodes: cNodes, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND setVertexLabels AS lblGroup WITH lblGroup WHERE lblGroup.label = 'L' UNWIND lblGroup.vertices AS newNode MATCH (q:Q) WHERE (q.k = newNode.k) WITH count(q) AS n, newNode WHERE (n > 0) WITH *, CASE WHEN true THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newNode.p, n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'L' FOR ALL NODES BEGIN CREATE (:Probe {v: size(NEWNODES)}) END",
        r#"apoc afterAsync
UNWIND $assignedLabels['L'] AS cNodes WITH cNodes WHERE true WITH collect(cNodes) AS cNodesList CALL apoc.do.when((size(cNodesList) > 0), 'CREATE (:Probe {v: size(cNodesList)})', '', {cNodesList: cNodesList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND setVertexLabels AS lblGroup WITH lblGroup WHERE lblGroup.label = 'L' UNWIND lblGroup.vertices AS newNode WITH newNode WHERE true WITH collect(newNode) AS newNodeList WITH *, CASE WHEN (size(newNodeList) > 0) THEN newNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(newNodeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'L' FOR ALL NODES WHEN size(NEWNODES) > 1 BEGIN CREATE (:Probe {v: size(NEWNODES)}) END",
        r#"apoc afterAsync
UNWIND $assignedLabels['L'] AS cNodes WITH cNodes WHERE true WITH collect(cNodes) AS cNodesList CALL apoc.do.when(((size(cNodesList) > 0) AND (size(cNodesList) > 1)), 'CREATE (:Probe {v: size(cNodesList)})', '', {cNodesList: cNodesList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND setVertexLabels AS lblGroup WITH lblGroup WHERE lblGroup.label = 'L' UNWIND lblGroup.vertices AS newNode WITH newNode WHERE true WITH collect(newNode) AS newNodeList WITH *, CASE WHEN ((size(newNodeList) > 0) AND (size(newNodeList) > 1)) THEN newNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(newNodeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'L' FOR ALL NODES WHEN MATCH (q:Q) WITH count(q) AS n WHERE n > size(NEWNODES) BEGIN CREATE (:Probe {v: size(NEWNODES), n: n}) END",
        r#"apoc afterAsync
UNWIND $assignedLabels['L'] AS cNodes WITH cNodes WHERE true WITH collect(cNodes) AS cNodesList MATCH (q:Q) WITH count(q) AS n, cNodesList WHERE (n > size(cNodesList)) CALL apoc.do.when((size(cNodesList) > 0), 'CREATE (:Probe {v: size(cNodesList), n: n})', '', {cNodesList: cNodesList, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND setVertexLabels AS lblGroup WITH lblGroup WHERE lblGroup.label = 'L' UNWIND lblGroup.vertices AS newNode WITH newNode WHERE true WITH collect(newNode) AS newNodeList MATCH (q:Q) WITH count(q) AS n, newNodeList WHERE (n > size(newNodeList)) WITH *, CASE WHEN (size(newNodeList) > 0) THEN newNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(newNodeList), n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER REMOVE ON 'L' FOR EACH NODE BEGIN CREATE (:Probe {v: OLD.p}) END",
        r#"apoc afterAsync
UNWIND $removedLabels['L'] AS cNodes CALL apoc.do.when(true, 'CREATE (:Probe {v: cNodes.p})', '', {cNodes: cNodes}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND removedVertexLabels AS lblGroup WITH lblGroup WHERE lblGroup.label = 'L' UNWIND lblGroup.vertices AS oldNode WITH *, CASE WHEN true THEN oldNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldNode.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER REMOVE ON 'L' FOR EACH NODE WHEN OLD.p > 0 BEGIN CREATE (:Probe {v: OLD.p}) END",
        r#"apoc afterAsync
UNWIND $removedLabels['L'] AS cNodes CALL apoc.do.when((true AND (cNodes.p > 0)), 'CREATE (:Probe {v: cNodes.p})', '', {cNodes: cNodes}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND removedVertexLabels AS lblGroup WITH lblGroup WHERE lblGroup.label = 'L' UNWIND lblGroup.vertices AS oldNode WITH *, CASE WHEN (true AND (oldNode.p > 0)) THEN oldNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldNode.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER REMOVE ON 'L' FOR EACH NODE WHEN MATCH (q:Q) WHERE q.k = OLD.k WITH count(q) AS n WHERE n > 0 BEGIN CREATE (:Probe {v: OLD.p, n: n}) END",
        r#"apoc afterAsync
UNWIND $removedLabels['L'] AS cNodes MATCH (q:Q) WHERE (q.k = cNodes.k) WITH count(q) AS n, cNodes WHERE (n > 0) CALL apoc.do.when(true, 'CREATE (:Probe {v: cNodes.p, n: n})', '', {cNodes: cNodes, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND removedVertexLabels AS lblGroup WITH lblGroup WHERE lblGroup.label = 'L' UNWIND lblGroup.vertices AS oldNode MATCH (q:Q) WHERE (q.k = oldNode.k) WITH count(q) AS n, oldNode WHERE (n > 0) WITH *, CASE WHEN true THEN oldNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldNode.p, n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER REMOVE ON 'L' FOR ALL NODES BEGIN CREATE (:Probe {v: size(OLDNODES)}) END",
        r#"apoc afterAsync
UNWIND $removedLabels['L'] AS cNodes WITH cNodes WHERE true WITH collect(cNodes) AS cNodesList CALL apoc.do.when((size(cNodesList) > 0), 'CREATE (:Probe {v: size(cNodesList)})', '', {cNodesList: cNodesList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND removedVertexLabels AS lblGroup WITH lblGroup WHERE lblGroup.label = 'L' UNWIND lblGroup.vertices AS oldNode WITH oldNode WHERE true WITH collect(oldNode) AS oldNodeList WITH *, CASE WHEN (size(oldNodeList) > 0) THEN oldNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(oldNodeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER REMOVE ON 'L' FOR ALL NODES WHEN size(OLDNODES) > 1 BEGIN CREATE (:Probe {v: size(OLDNODES)}) END",
        r#"apoc afterAsync
UNWIND $removedLabels['L'] AS cNodes WITH cNodes WHERE true WITH collect(cNodes) AS cNodesList CALL apoc.do.when(((size(cNodesList) > 0) AND (size(cNodesList) > 1)), 'CREATE (:Probe {v: size(cNodesList)})', '', {cNodesList: cNodesList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND removedVertexLabels AS lblGroup WITH lblGroup WHERE lblGroup.label = 'L' UNWIND lblGroup.vertices AS oldNode WITH oldNode WHERE true WITH collect(oldNode) AS oldNodeList WITH *, CASE WHEN ((size(oldNodeList) > 0) AND (size(oldNodeList) > 1)) THEN oldNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(oldNodeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER REMOVE ON 'L' FOR ALL NODES WHEN MATCH (q:Q) WITH count(q) AS n WHERE n > size(OLDNODES) BEGIN CREATE (:Probe {v: size(OLDNODES), n: n}) END",
        r#"apoc afterAsync
UNWIND $removedLabels['L'] AS cNodes WITH cNodes WHERE true WITH collect(cNodes) AS cNodesList MATCH (q:Q) WITH count(q) AS n, cNodesList WHERE (n > size(cNodesList)) CALL apoc.do.when((size(cNodesList) > 0), 'CREATE (:Probe {v: size(cNodesList), n: n})', '', {cNodesList: cNodesList, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND removedVertexLabels AS lblGroup WITH lblGroup WHERE lblGroup.label = 'L' UNWIND lblGroup.vertices AS oldNode WITH oldNode WHERE true WITH collect(oldNode) AS oldNodeList MATCH (q:Q) WITH count(q) AS n, oldNodeList WHERE (n > size(oldNodeList)) WITH *, CASE WHEN (size(oldNodeList) > 0) THEN oldNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: size(oldNodeList), n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'L'.'p' FOR EACH NODE BEGIN CREATE (:Probe {v: NEW.p}) END",
        r#"apoc afterAsync
UNWIND $assignedNodeProperties['p'] AS aProp WITH aProp.node AS node, {p: aProp.old} AS oldProps CALL apoc.do.when(node:L, 'CREATE (:Probe {v: node.p})', '', {node: node}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND setVertexProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.vertex AS newNode, {p: pe.old_value} AS oldProps WITH *, CASE WHEN ('L' IN labels(newNode)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newNode.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'L'.'p' FOR EACH NODE WHEN NEW.p <> OLD.p BEGIN CREATE (:Probe {v: NEW.p}) END",
        r#"apoc afterAsync
UNWIND $assignedNodeProperties['p'] AS aProp WITH aProp.node AS node, {p: aProp.old} AS oldProps CALL apoc.do.when((node:L AND (node.p <> oldProps.p)), 'CREATE (:Probe {v: node.p})', '', {node: node, oldProps: oldProps}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND setVertexProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.vertex AS newNode, {p: pe.old_value} AS oldProps WITH *, CASE WHEN (('L' IN labels(newNode)) AND (newNode.p <> oldProps.p)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newNode.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'L'.'p' FOR EACH NODE WHEN MATCH (q:Q) WHERE q.k = NEW.k WITH count(q) AS n WHERE n > 0 BEGIN CREATE (:Probe {v: NEW.p, n: n}) END",
        r#"apoc afterAsync
UNWIND $assignedNodeProperties['p'] AS aProp WITH aProp.node AS node, {p: aProp.old} AS oldProps MATCH (q:Q) WHERE (q.k = node.k) WITH count(q) AS n, node, oldProps WHERE (n > 0) CALL apoc.do.when(node:L, 'CREATE (:Probe {v: node.p, n: n})', '', {n: n, node: node}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND setVertexProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.vertex AS newNode, {p: pe.old_value} AS oldProps MATCH (q:Q) WHERE (q.k = newNode.k) WITH count(q) AS n, newNode, oldProps WHERE (n > 0) WITH *, CASE WHEN ('L' IN labels(newNode)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newNode.p, n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER REMOVE ON 'L'.'p' FOR EACH NODE BEGIN CREATE (:Probe {v: OLD.p}) END",
        r#"apoc afterAsync
UNWIND $removedNodeProperties['p'] AS aProp WITH aProp.node AS node, {p: aProp.old} AS oldProps CALL apoc.do.when(node:L, 'CREATE (:Probe {v: oldProps.p})', '', {node: node, oldProps: oldProps}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND removedVertexProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.vertex AS newNode, {p: pe.old_value} AS oldProps WITH *, CASE WHEN ('L' IN labels(newNode)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldProps.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER REMOVE ON 'L'.'p' FOR EACH NODE WHEN NEW.p <> OLD.p BEGIN CREATE (:Probe {v: OLD.p}) END",
        r#"apoc afterAsync
UNWIND $removedNodeProperties['p'] AS aProp WITH aProp.node AS node, {p: aProp.old} AS oldProps CALL apoc.do.when((node:L AND (node.p <> oldProps.p)), 'CREATE (:Probe {v: oldProps.p})', '', {node: node, oldProps: oldProps}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND removedVertexProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.vertex AS newNode, {p: pe.old_value} AS oldProps WITH *, CASE WHEN (('L' IN labels(newNode)) AND (newNode.p <> oldProps.p)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldProps.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER REMOVE ON 'L'.'p' FOR EACH NODE WHEN MATCH (q:Q) WHERE q.k = OLD.k WITH count(q) AS n WHERE n > 0 BEGIN CREATE (:Probe {v: OLD.p, n: n}) END",
        r#"apoc afterAsync
UNWIND $removedNodeProperties['p'] AS aProp WITH aProp.node AS node, {p: aProp.old} AS oldProps MATCH (q:Q) WHERE (q.k = oldProps.k) WITH count(q) AS n, node, oldProps WHERE (n > 0) CALL apoc.do.when(node:L, 'CREATE (:Probe {v: oldProps.p, n: n})', '', {n: n, node: node, oldProps: oldProps}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND removedVertexProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.vertex AS newNode, {p: pe.old_value} AS oldProps MATCH (q:Q) WHERE (q.k = oldProps.k) WITH count(q) AS n, newNode, oldProps WHERE (n > 0) WITH *, CASE WHEN ('L' IN labels(newNode)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldProps.p, n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'R'.'p' FOR EACH RELATIONSHIP BEGIN CREATE (:Probe {v: NEW.p}) END",
        r#"apoc afterAsync
UNWIND $assignedRelProperties['p'] AS aProp WITH aProp.relationship AS rel, {p: aProp.old} AS oldProps CALL apoc.do.when((type(rel) = 'R'), 'CREATE (:Probe {v: rel.p})', '', {rel: rel}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> UPDATE AFTER COMMIT EXECUTE UNWIND setEdgeProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.edge AS newEdge, {p: pe.old_value} AS oldProps WITH *, CASE WHEN (type(newEdge) = 'R') THEN newEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newEdge.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'R'.'p' FOR EACH RELATIONSHIP WHEN NEW.p <> OLD.p BEGIN CREATE (:Probe {v: NEW.p}) END",
        r#"apoc afterAsync
UNWIND $assignedRelProperties['p'] AS aProp WITH aProp.relationship AS rel, {p: aProp.old} AS oldProps CALL apoc.do.when(((type(rel) = 'R') AND (rel.p <> oldProps.p)), 'CREATE (:Probe {v: rel.p})', '', {oldProps: oldProps, rel: rel}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> UPDATE AFTER COMMIT EXECUTE UNWIND setEdgeProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.edge AS newEdge, {p: pe.old_value} AS oldProps WITH *, CASE WHEN ((type(newEdge) = 'R') AND (newEdge.p <> oldProps.p)) THEN newEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newEdge.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'R'.'p' FOR EACH RELATIONSHIP WHEN MATCH (q:Q) WHERE q.k = NEW.k WITH count(q) AS n WHERE n > 0 BEGIN CREATE (:Probe {v: NEW.p, n: n}) END",
        r#"apoc afterAsync
UNWIND $assignedRelProperties['p'] AS aProp WITH aProp.relationship AS rel, {p: aProp.old} AS oldProps MATCH (q:Q) WHERE (q.k = rel.k) WITH count(q) AS n, rel, oldProps WHERE (n > 0) CALL apoc.do.when((type(rel) = 'R'), 'CREATE (:Probe {v: rel.p, n: n})', '', {n: n, rel: rel}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> UPDATE AFTER COMMIT EXECUTE UNWIND setEdgeProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.edge AS newEdge, {p: pe.old_value} AS oldProps MATCH (q:Q) WHERE (q.k = newEdge.k) WITH count(q) AS n, newEdge, oldProps WHERE (n > 0) WITH *, CASE WHEN (type(newEdge) = 'R') THEN newEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newEdge.p, n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER REMOVE ON 'R'.'p' FOR EACH RELATIONSHIP BEGIN CREATE (:Probe {v: OLD.p}) END",
        r#"apoc afterAsync
UNWIND $removedRelProperties['p'] AS aProp WITH aProp.relationship AS rel, {p: aProp.old} AS oldProps CALL apoc.do.when((type(rel) = 'R'), 'CREATE (:Probe {v: oldProps.p})', '', {oldProps: oldProps, rel: rel}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> UPDATE AFTER COMMIT EXECUTE UNWIND removedEdgeProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.edge AS newEdge, {p: pe.old_value} AS oldProps WITH *, CASE WHEN (type(newEdge) = 'R') THEN newEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldProps.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER REMOVE ON 'R'.'p' FOR EACH RELATIONSHIP WHEN NEW.p <> OLD.p BEGIN CREATE (:Probe {v: OLD.p}) END",
        r#"apoc afterAsync
UNWIND $removedRelProperties['p'] AS aProp WITH aProp.relationship AS rel, {p: aProp.old} AS oldProps CALL apoc.do.when(((type(rel) = 'R') AND (rel.p <> oldProps.p)), 'CREATE (:Probe {v: oldProps.p})', '', {oldProps: oldProps, rel: rel}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> UPDATE AFTER COMMIT EXECUTE UNWIND removedEdgeProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.edge AS newEdge, {p: pe.old_value} AS oldProps WITH *, CASE WHEN ((type(newEdge) = 'R') AND (newEdge.p <> oldProps.p)) THEN newEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldProps.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER REMOVE ON 'R'.'p' FOR EACH RELATIONSHIP WHEN MATCH (q:Q) WHERE q.k = OLD.k WITH count(q) AS n WHERE n > 0 BEGIN CREATE (:Probe {v: OLD.p, n: n}) END",
        r#"apoc afterAsync
UNWIND $removedRelProperties['p'] AS aProp WITH aProp.relationship AS rel, {p: aProp.old} AS oldProps MATCH (q:Q) WHERE (q.k = oldProps.k) WITH count(q) AS n, rel, oldProps WHERE (n > 0) CALL apoc.do.when((type(rel) = 'R'), 'CREATE (:Probe {v: oldProps.p, n: n})', '', {n: n, oldProps: oldProps, rel: rel}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> UPDATE AFTER COMMIT EXECUTE UNWIND removedEdgeProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.edge AS newEdge, {p: pe.old_value} AS oldProps MATCH (q:Q) WHERE (q.k = oldProps.k) WITH count(q) AS n, newEdge, oldProps WHERE (n > 0) WITH *, CASE WHEN (type(newEdge) = 'R') THEN newEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: oldProps.p, n: n})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t BEFORE CREATE ON 'L' FOR EACH NODE BEGIN SET NEW.seen = true END",
        r#"apoc before
UNWIND $createdNodes AS cNodes CALL apoc.do.when(cNodes:L, 'SET cNodes.seen = true', '', {cNodes: cNodes}) YIELD value RETURN *
["BEFORE has no APOC equivalent: mapped to the (pre-commit) 'before' phase, which sees post-statement state and cannot veto cleanly", "APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph Before
CREATE TRIGGER t ON () CREATE BEFORE COMMIT EXECUTE UNWIND createdVertices AS newNode WITH *, CASE WHEN ('L' IN labels(newNode)) THEN newNode END AS flag WHERE flag IS NOT NULL SET newNode.seen = true
["BEFORE has no Memgraph equivalent: mapped to BEFORE COMMIT, which sees post-statement state", "Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t ONCOMMIT DELETE ON 'L' FOR ALL NODES BEGIN CREATE (:Probe {n: size(OLDNODES)}) END",
        r#"apoc before
UNWIND $deletedNodes AS dNodes WITH dNodes WHERE ('L' IN dNodes.__labels) WITH collect(dNodes) AS dNodesList CALL apoc.do.when((size(dNodesList) > 0), 'CREATE (:Probe {n: size(dNodesList)})', '', {dNodesList: dNodesList}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph Before
CREATE TRIGGER t ON () DELETE BEFORE COMMIT EXECUTE UNWIND deletedVertices AS oldNode WITH oldNode WHERE ('L' IN oldNode.__labels) WITH collect(oldNode) AS oldNodeList WITH *, CASE WHEN (size(oldNodeList) > 0) THEN oldNodeList END AS flag WHERE flag IS NOT NULL CREATE (:Probe {n: size(oldNodeList)})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t DETACHED SET ON 'R'.'p' FOR EACH RELATIONSHIP BEGIN CREATE (:Probe {was: OLD.p}) END",
        r#"apoc afterAsync
UNWIND $assignedRelProperties['p'] AS aProp WITH aProp.relationship AS rel, {p: aProp.old} AS oldProps CALL apoc.do.when((type(rel) = 'R'), 'CREATE (:Probe {was: oldProps.p})', '', {oldProps: oldProps, rel: rel}) YIELD value RETURN *
["DETACHED approximated by afterAsync: the autonomous transaction may observe state later than the activating commit", "APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON --> UPDATE AFTER COMMIT EXECUTE UNWIND setEdgeProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.edge AS newEdge, {p: pe.old_value} AS oldProps WITH *, CASE WHEN (type(newEdge) = 'R') THEN newEdge END AS flag WHERE flag IS NOT NULL CREATE (:Probe {was: oldProps.p})
["DETACHED approximated by AFTER COMMIT (asynchronous, may observe later state)", "Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'L' REFERENCING NEW AS fresh FOR EACH NODE WHEN fresh.p > 0 BEGIN CREATE (:Probe {v: fresh.p}) END",
        r#"apoc afterAsync
UNWIND $createdNodes AS cNodes CALL apoc.do.when((cNodes:L AND (cNodes.p > 0)), 'CREATE (:Probe {v: cNodes.p})', '', {cNodes: cNodes}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode WITH *, CASE WHEN (('L' IN labels(newNode)) AND (newNode.p > 0)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {v: newNode.p})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'L' REFERENCING NEWNODES AS batch FOR ALL NODES WHEN MATCH (q:Q) WITH count(q) AS n WHERE n > 0 BEGIN FOREACH (b IN batch | CREATE (:Probe {v: b.p, n: n})) END",
        r#"apoc afterAsync
UNWIND $createdNodes AS cNodes WITH cNodes WHERE cNodes:L WITH collect(cNodes) AS cNodesList MATCH (q:Q) WITH count(q) AS n, cNodesList WHERE (n > 0) CALL apoc.do.when((size(cNodesList) > 0), 'FOREACH (b IN cNodesList | CREATE (:Probe {v: b.p, n: n}))', '', {cNodesList: cNodesList, n: n}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode WITH newNode WHERE ('L' IN labels(newNode)) WITH collect(newNode) AS newNodeList MATCH (q:Q) WITH count(q) AS n, newNodeList WHERE (n > 0) WITH *, CASE WHEN (size(newNodeList) > 0) THEN newNodeList END AS flag WHERE flag IS NOT NULL FOREACH (b IN newNodeList | CREATE (:Probe {v: b.p, n: n}))
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'L' FOR EACH NODE WHEN MATCH (q:Q) WITH q ORDER BY q.k LIMIT 1 WHERE q.k = NEW.k BEGIN CREATE (:Probe {k: q.k}) END",
        r#"apoc afterAsync
UNWIND $createdNodes AS cNodes MATCH (q:Q) WITH q, cNodes ORDER BY q.k LIMIT 1 WHERE (q.k = cNodes.k) CALL apoc.do.when(cNodes:L, 'CREATE (:Probe {k: q.k})', '', {cNodes: cNodes, q: q}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)", "SKIP/LIMIT in a condition pipeline: after translation it applies across all affected items, not per item"]
memgraph After
CREATE TRIGGER t ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode MATCH (q:Q) WITH q, newNode ORDER BY q.k LIMIT 1 WHERE (q.k = newNode.k) WITH *, CASE WHEN ('L' IN labels(newNode)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {k: q.k})
["Memgraph triggers do not cascade (identical to APOC, §5.2)", "SKIP/LIMIT in a condition pipeline: after translation it applies across all affected items, not per item"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER SET ON 'L'.'p' FOR EACH NODE WHEN MATCH (q:Q) WITH DISTINCT q.k AS k WHERE k = OLD.p BEGIN CREATE (:Probe {msg: 'it\\'s \\\\ odd', k: k}) END",
        r#"apoc afterAsync
UNWIND $assignedNodeProperties['p'] AS aProp WITH aProp.node AS node, {p: aProp.old} AS oldProps MATCH (q:Q) WITH DISTINCT q.k AS k, node, oldProps WHERE (k = oldProps.p) CALL apoc.do.when(node:L, 'CREATE (:Probe {msg: \'it\\\'s \\\\ odd\', k: k})', '', {k: k, node: node}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () UPDATE AFTER COMMIT EXECUTE UNWIND setVertexProperties AS pe WITH pe WHERE pe.key = 'p' WITH pe.vertex AS newNode, {p: pe.old_value} AS oldProps MATCH (q:Q) WITH DISTINCT q.k AS k, newNode, oldProps WHERE (k = oldProps.p) WITH *, CASE WHEN ('L' IN labels(newNode)) THEN newNode END AS flag WHERE flag IS NOT NULL CREATE (:Probe {msg: 'it\'s \\ odd', k: k})
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
    (
        "CREATE TRIGGER t AFTER CREATE ON 'L' FOR EACH NODE WHEN EXISTS { MATCH (NEW)-[:R]->(q:Q) WHERE q.k > 0 } BEGIN MATCH (NEW)-[r:R]->(q) SET r.w = q.k REMOVE q.k END",
        r#"apoc afterAsync
UNWIND $createdNodes AS cNodes CALL apoc.do.when((cNodes:L AND EXISTS { MATCH (cNodes)-[:R]->(q:Q) WHERE (q.k > 0) }), 'MATCH (cNodes)-[r:R]->(q) SET r.w = q.k REMOVE q.k', '', {cNodes: cNodes}) YIELD value RETURN *
["APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"]
memgraph After
CREATE TRIGGER t ON () CREATE AFTER COMMIT EXECUTE UNWIND createdVertices AS newNode WITH *, CASE WHEN (('L' IN labels(newNode)) AND EXISTS { MATCH (newNode)-[:R]->(q:Q) WHERE (q.k > 0) }) THEN newNode END AS flag WHERE flag IS NOT NULL MATCH (newNode)-[r:R]->(q) SET r.w = q.k REMOVE q.k
["Memgraph triggers do not cascade (identical to APOC, §5.2)"]"#,
    ),
];
