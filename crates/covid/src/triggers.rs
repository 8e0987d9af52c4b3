//! The seven PG-Triggers of the paper's §6.2, in executable form.
//!
//! The paper's listings are near-executable Cypher with a few informal
//! spots; the versions here are the faithful executable readings, with each
//! adaptation noted:
//!
//! * aggregate conditions use `COUNT(DISTINCT …)` where the paper writes
//!   `COUNT(…)` over multi-pattern matches (set semantics over a cross
//!   join — the paper's §6.3 APOC translations have the same intent);
//! * the ICU-increase ratio multiplies by `1.0` to force float division
//!   (`NewIcuPat / TotalIcuPat` would be integer division in Cypher);
//! * `IcuPatientMove` counts Meyer's ICU patients with `OPTIONAL MATCH` so
//!   an empty ICU reads as zero rather than failing the match;
//! * the paper's `THEN BEGIN … END` block punctuation is accepted verbatim
//!   by the lenient parser.

use pg_graph::{IndexDef, IndexScope};
use pg_triggers::{InstallError, Session};

/// §6.2.1 — "reacts to the fact that a new mutation is associated with a
/// critical effect by creating an alert with the name of the mutation."
pub const NEW_CRITICAL_MUTATION: &str = "
CREATE TRIGGER NewCriticalMutation
AFTER CREATE
ON 'Mutation'
FOR EACH NODE
WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect)
BEGIN
  CREATE (:Alert{time:DATETIME(),
                 desc:'New critical mutation',
                 mutation:NEW.name})
END";

/// §6.2.1 — "reacts to the association of a critical mutation with a
/// lineage … and creates an alert for the lineage."
pub const NEW_CRITICAL_LINEAGE: &str = "
CREATE TRIGGER NewCriticalLineage
AFTER CREATE
ON 'BelongsTo'
FOR EACH RELATIONSHIP
WHEN
  MATCH (s:Sequence)-[NEW]-(l:Lineage)
  WHERE EXISTS {
    MATCH (:CriticalEffect)-[:Risk]-(:Mutation)-[:FoundIn]-(s)
  }
BEGIN
  CREATE (:Alert{time:DATETIME(),
                 desc:'New critical lineage',
                 lineage:l.name})
END";

/// §6.2.1 — "monitors a simple change in the whoDesignation property, e.g.
/// the change of Indian to Delta."
pub const WHO_DESIGNATION_CHANGE: &str = "
CREATE TRIGGER WhoDesignationChange
AFTER SET
ON 'Lineage'.'whoDesignation'
FOR EACH NODE
WHEN OLD.whoDesignation <> NEW.whoDesignation
BEGIN
  CREATE (:Alert{time: DATETIME(),
    desc:'New Designation for an existing Lineage'})
END";

/// §6.2.2 — "counts the patients who require intensive care at the Sacco
/// Hospital and raises an alert when their number exceeds 50 patients."
pub const ICU_PATIENTS_OVER_THRESHOLD: &str = "
CREATE TRIGGER IcuPatientsOverThreshold
AFTER CREATE
ON 'IcuPatient'
FOR ALL NODES
WHEN
  MATCH (p:HospitalizedPatient:IcuPatient)
    -[:TreatedAt]-(:Hospital{name:'Sacco'})
  WITH COUNT(DISTINCT p) AS icuPat
  WHERE icuPat > 50
BEGIN
  CREATE (:Alert{time:DATETIME(),desc:'ICU patients at Sacco Hospital are more than 50'})
END";

/// §6.2.2 — "raises an alert when the new patients in ICU are more than 10%
/// of the total of patients in ICU."
pub const ICU_PATIENT_INCREASE: &str = "
CREATE TRIGGER IcuPatientIncrease
AFTER CREATE
ON 'IcuPatient'
FOR ALL NODES
WHEN
  MATCH (p:HospitalizedPatient:IcuPatient)-
    [:TreatedAt]-(:Hospital{name: 'Sacco'}),
  MATCH (pn:NEWNODES)-[:TreatedAt]-(:Hospital{name:'Sacco'})
  WITH COUNT(DISTINCT pn) AS NewIcuPat,
       COUNT(DISTINCT p) AS TotalIcuPat
  WHERE NewIcuPat * 1.0 / TotalIcuPat > 0.1
BEGIN
  CREATE (:Alert{time:DATETIME(),desc:'ICU patients at Sacco Hospital have increased by > 10%'})
END";

/// §6.2.3 — "the relocation of patients from the Sacco Hospital … to the
/// Meyer Hospital … caused by the unavailability of ICU beds."
pub const ICU_PATIENT_MOVE: &str = "
CREATE TRIGGER IcuPatientMove
AFTER CREATE
ON 'IcuPatient'
FOR ALL NODES
WHEN
  MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-
    (h:Hospital{name:'Sacco'})
  WITH COUNT(DISTINCT p) AS TotalIcuPat, h
  WHERE TotalIcuPat > h.icuBeds
BEGIN
  MATCH (ht:Hospital {name:'Meyer'})
  MATCH (pn:NEWNODES)-[:TreatedAt]-(:Hospital{name:'Sacco'})
  OPTIONAL MATCH (pt:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(ht)
  WITH collect(DISTINCT pn) AS movers, COUNT(DISTINCT pt) AS MeyerICU, ht
  WHERE size(movers) + MeyerICU <= ht.icuBeds
  THEN FOREACH (p IN movers)
  BEGIN
    MATCH (p)-[c:TreatedAt]-(:Hospital{name:'Sacco'})
    DELETE c
    CREATE (p)-[:TreatedAt]->(ht)
  END
END";

/// §6.2.3 — "operates upon all hospitals in Lombardy where there are new
/// patients admitted to ICU, and moves newly admitted patients from those
/// hospitals where ICU beds are exceeded … to the closest hospital."
pub const MOVE_TO_NEAR_HOSPITAL: &str = "
CREATE TRIGGER MoveToNearHospital
AFTER CREATE
ON 'IcuPatient'
FOR EACH NODE
WHEN
  MATCH (NEW:HospitalizedPatient:IcuPatient)
    -[:TreatedAt]-(h:Hospital)
    -[:LocatedIn]-(:Region{name:'Lombardy'}),
  MATCH (p:IcuPatient)-[:TreatedAt]-(h)
  WITH COUNT(DISTINCT p) AS TotalIcuPat, h
  WHERE TotalIcuPat > h.icuBeds
BEGIN
  MATCH (pn:NEW)-[c:TreatedAt]-(h)-[ct:ConnectedTo]-(hc:Hospital)
  WITH ct, c, hc, pn ORDER BY ct.distance LIMIT 1
  THEN
  BEGIN
    DELETE c
    CREATE (pn)-[:TreatedAt]->(hc)
  END
END";

/// The seven §6.2 triggers in paper order.
pub const PAPER_TRIGGERS: [&str; 7] = [
    NEW_CRITICAL_MUTATION,
    NEW_CRITICAL_LINEAGE,
    WHO_DESIGNATION_CHANGE,
    ICU_PATIENTS_OVER_THRESHOLD,
    ICU_PATIENT_INCREASE,
    ICU_PATIENT_MOVE,
    MOVE_TO_NEAR_HOSPITAL,
];

/// Install all §6.2 triggers into a session, returning their names.
pub fn install_paper_triggers(session: &mut Session) -> Result<Vec<String>, InstallError> {
    PAPER_TRIGGERS
        .iter()
        .map(|ddl| session.install(ddl))
        .collect()
}

/// The single-key indexes behind the §6.2 triggers, as
/// [`IndexDef::new`] arguments. On nodes: the properties the conditions
/// filter on with equality predicates — `{name: 'Sacco'}`,
/// `{name: 'Lombardy'}`, sequence accessions, lineage names — plus the
/// schema's PG-Keys (`Patient.ssn`), turning the condition-matching hot
/// path from label scans into index lookups. On relationships:
/// `ConnectedTo.distance`, which backs the §6.2.3 `MoveToNearHospital`
/// body's `ORDER BY ct.distance LIMIT 1` as an index-backed top-k walk.
pub const PAPER_INDEXES: [(IndexScope<'static>, &[&str]); 7] = [
    (IndexScope::Label("Hospital"), &["name"]),
    (IndexScope::Label("Region"), &["name"]),
    (IndexScope::Label("Lineage"), &["name"]),
    (IndexScope::Label("Mutation"), &["name"]),
    (IndexScope::Label("Patient"), &["ssn"]),
    (IndexScope::Label("Sequence"), &["accession"]),
    (IndexScope::RelType("ConnectedTo"), &["distance"]),
];

/// The composite indexes behind §6's *conjunctive* condition shapes —
/// `(p:Patient {status: 'icu'}) WHERE p.severity >= t` is one
/// O(log n + k) walk of `(Patient, [status, severity])`, and the same
/// index serves `{status: 'icu'} … ORDER BY p.severity LIMIT k` as an
/// equality-prefix-pinned ordered walk. In-process only:
/// [`crate::wire::setup_statements`] has never installed these, and
/// adding them there is a benchmark workload change (ROADMAP item 1a(v)).
pub const PAPER_COMPOSITE_INDEXES: [(IndexScope<'static>, &[&str]); 1] =
    [(IndexScope::Label("Patient"), &["status", "severity"])];

/// Create the property indexes backing the §6.2 trigger predicates
/// (idempotent: already-existing indexes are left alone).
pub fn install_paper_indexes(session: &mut Session) {
    for (scope, columns) in PAPER_INDEXES.into_iter().chain(PAPER_COMPOSITE_INDEXES) {
        // `false` = already exists — the covid schema may have created some
        let def = IndexDef::new(scope, columns);
        session.graph_mut().define_index(&def);
    }
    // indexes created after a bulk load start with fresh statistics
    session.graph_mut().rebuild_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_triggers::{parse_trigger_ddl, DdlStatement};

    #[test]
    fn all_paper_triggers_parse() {
        for ddl in PAPER_TRIGGERS {
            match parse_trigger_ddl(ddl) {
                Ok(DdlStatement::CreateTrigger(spec)) => {
                    assert!(!spec.name.is_empty());
                }
                other => panic!("{ddl}\nfailed: {other:?}"),
            }
        }
    }

    #[test]
    fn paper_triggers_regenerate_and_reinstall() {
        // Every §6.2 trigger must survive to_ddl → parse → install.
        for ddl in PAPER_TRIGGERS {
            let spec = match parse_trigger_ddl(ddl).unwrap() {
                DdlStatement::CreateTrigger(s) => s,
                _ => panic!(),
            };
            let regenerated = spec.to_ddl();
            let mut s = Session::new();
            s.install(&regenerated)
                .unwrap_or_else(|e| panic!("{}\n{e}", regenerated));
        }
    }

    #[test]
    fn install_all_into_session() {
        let mut s = Session::new();
        let names = install_paper_triggers(&mut s).unwrap();
        assert_eq!(names.len(), 7);
        assert_eq!(s.catalog().len(), 7);
        assert_eq!(names[0], "NewCriticalMutation");
        assert_eq!(names[6], "MoveToNearHospital");
    }
}
