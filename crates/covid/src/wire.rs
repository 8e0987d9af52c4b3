//! The §6 scenario as *wire-executable statements*: everything a remote
//! client needs to stand up the reactive COVID workload over a socket —
//! index DDL, the §6.2 trigger DDL, a compact seed graph — plus the
//! statement shapes concurrent clients drive against it.
//!
//! The in-process [`crate::Scenario`] bulk-loads through
//! [`pg_triggers::Session::graph_mut`]; a wire client has no such
//! backdoor, so here the whole setup is ordinary statements any
//! connection can `RUN`. The seed is deliberately small and *cascade-
//! prone*: Sacco's ICU holds only [`SACCO_ICU_BEDS`] beds, so a few
//! concurrent admissions push it over capacity and fire the §6.2.3
//! relocation triggers, while critical-mutation discoveries fire the
//! §6.2.1 alert trigger — each committing an atomic multi-effect epoch
//! that *other* clients' snapshot reads must observe all-or-nothing.

use crate::triggers::{PAPER_INDEXES, PAPER_TRIGGERS};
use pg_graph::IndexDef;

/// ICU capacity of the Sacco hospital in the wire seed — small, so
/// admission waves overflow it quickly and the relocation cascade fires.
pub const SACCO_ICU_BEDS: i64 = 3;

/// ICU capacity of the relocation targets (roomy, so moves succeed).
pub const TARGET_ICU_BEDS: i64 = 500;

/// Statements that stand up the full scenario on an empty server, in
/// execution order: indexes first (they then serve the trigger
/// conditions), the seed graph second, the §6.2 triggers last (so seeding
/// itself fires nothing).
pub fn setup_statements() -> Vec<String> {
    let mut stmts: Vec<String> = Vec::new();
    for (scope, columns) in PAPER_INDEXES {
        let def = IndexDef::new(scope, columns);
        stmts.push(format!("CREATE INDEX ON {def}"));
    }
    stmts.extend(seed_statements());
    stmts.extend(PAPER_TRIGGERS.iter().map(|t| t.to_string()));
    stmts
}

/// The seed graph alone (region, hospitals with ICU capacities and
/// distances, one critical effect, a lineage, a sequence).
pub fn seed_statements() -> Vec<String> {
    let mut stmts = vec![
        "CREATE (:Region {name: 'Lombardy'})".to_string(),
        format!(
            "MATCH (r:Region {{name: 'Lombardy'}}) \
             CREATE (:Hospital {{name: 'Sacco', icuBeds: {SACCO_ICU_BEDS}}})-[:LocatedIn]->(r)"
        ),
        format!(
            "MATCH (r:Region {{name: 'Lombardy'}}) \
             CREATE (:Hospital {{name: 'Meyer', icuBeds: {TARGET_ICU_BEDS}}})-[:LocatedIn]->(r)"
        ),
        format!(
            "MATCH (r:Region {{name: 'Lombardy'}}) \
             CREATE (:Hospital {{name: 'Niguarda', icuBeds: {TARGET_ICU_BEDS}}})-[:LocatedIn]->(r)"
        ),
    ];
    // Niguarda is the closest neighbour, so §6.2.3 MoveToNearHospital
    // relocates Sacco's overflow there (distance 3 beats Meyer's 12).
    stmts.push(
        "MATCH (a:Hospital {name: 'Sacco'}), (b:Hospital {name: 'Meyer'}) \
         CREATE (a)-[:ConnectedTo {distance: 12}]->(b)"
            .to_string(),
    );
    stmts.push(
        "MATCH (a:Hospital {name: 'Sacco'}), (b:Hospital {name: 'Niguarda'}) \
         CREATE (a)-[:ConnectedTo {distance: 3}]->(b)"
            .to_string(),
    );
    stmts.push("CREATE (:CriticalEffect {name: 'SevereOutcome'})".to_string());
    stmts.push("CREATE (:Lineage {name: 'B.1.617.2', whoDesignation: 'Indian'})".to_string());
    stmts.push("CREATE (:Sequence {accession: 'SEQ-1'})".to_string());
    stmts
}

/// Discover a critical mutation tagged `tag`: links the new `Mutation` to
/// the seeded `CriticalEffect`, so §6.2.1 `NewCriticalMutation` fires in
/// the same transaction and creates an `Alert {mutation: 'M<tag>'}` —
/// the probe other clients watch for with [`cascade_alert_query`].
pub fn discover_critical_mutation(tag: u64) -> String {
    format!(
        "MATCH (e:CriticalEffect) WITH e LIMIT 1 \
         CREATE (:Mutation {{name: 'M{tag}', protein: 'Spike'}})-[:Risk]->(e)"
    )
}

/// Count the alert raised by [`discover_critical_mutation`]`(tag)` — 0
/// before the cascade's epoch is visible, 1 from then on. Mutation and
/// alert commit in one epoch, so no snapshot can see one without the
/// other.
pub fn cascade_alert_query(tag: u64) -> String {
    format!("MATCH (a:Alert {{mutation: 'M{tag}'}}) RETURN count(*) AS n")
}

/// Admit an ICU patient (ssn `P<tag>`) to a hospital. Admissions beyond
/// the hospital's `icuBeds` fire the §6.2.3 relocation triggers, whose
/// delete-old-edge/create-new-edge effects commit atomically with the
/// admission.
pub fn icu_admission(tag: u64, hospital: &str, severity: i64) -> String {
    format!(
        "MATCH (h:Hospital {{name: '{hospital}'}}) \
         CREATE (p:Patient:HospitalizedPatient:IcuPatient \
                 {{ssn: 'P{tag}', status: 'icu', severity: {severity}}})\
                -[:TreatedAt]->(h)"
    )
}

/// Every hospitalized patient must be treated *somewhere*, in every
/// snapshot: the relocation cascade deletes the old `TreatedAt` edge and
/// creates the new one in one epoch. Returns the number of patients
/// violating that (must always read 0).
pub const ORPHANED_PATIENTS_QUERY: &str = "\
MATCH (p:HospitalizedPatient) \
WHERE NOT EXISTS { MATCH (p)-[:TreatedAt]-(:Hospital) } \
RETURN count(*) AS orphans";

/// Patients treated at a given hospital right now.
pub fn treated_at_query(hospital: &str) -> String {
    format!(
        "MATCH (p:IcuPatient)-[:TreatedAt]-(h:Hospital {{name: '{hospital}'}}) \
         RETURN count(DISTINCT p) AS n"
    )
}

/// An indexed point read (Patient by ssn) for read-mix workloads.
pub fn patient_lookup(tag: u64) -> String {
    format!("MATCH (p:Patient {{ssn: 'P{tag}'}}) RETURN p.severity AS severity")
}

/// A redesignation write (fires §6.2.1 `WhoDesignationChange`).
pub fn redesignate_lineage(to: &str) -> String {
    format!("MATCH (l:Lineage {{name: 'B.1.617.2'}}) SET l.whoDesignation = '{to}'")
}

/// Total alerts of any kind (read-mix aggregate).
pub const ALERT_COUNT_QUERY: &str = "MATCH (a:Alert) RETURN count(*) AS n";

#[cfg(test)]
mod tests {
    use super::*;
    use pg_triggers::Session;

    /// The benchmark's wire workloads replay this statement stream at every
    /// daemon start: a literal copy, so a change to the index lists or
    /// to how a definition prints cannot move it unnoticed. (The trigger
    /// texts are `PAPER_TRIGGERS` itself; their total size pins them.)
    #[test]
    fn setup_statements_are_byte_identical() {
        let stmts = setup_statements();
        let want = [
            "CREATE INDEX ON :Hospital(name)",
            "CREATE INDEX ON :Region(name)",
            "CREATE INDEX ON :Lineage(name)",
            "CREATE INDEX ON :Mutation(name)",
            "CREATE INDEX ON :Patient(ssn)",
            "CREATE INDEX ON :Sequence(accession)",
            "CREATE INDEX ON -[:ConnectedTo(distance)]-",
            "CREATE (:Region {name: 'Lombardy'})",
            "MATCH (r:Region {name: 'Lombardy'}) \
             CREATE (:Hospital {name: 'Sacco', icuBeds: 3})-[:LocatedIn]->(r)",
            "MATCH (r:Region {name: 'Lombardy'}) \
             CREATE (:Hospital {name: 'Meyer', icuBeds: 500})-[:LocatedIn]->(r)",
            "MATCH (r:Region {name: 'Lombardy'}) \
             CREATE (:Hospital {name: 'Niguarda', icuBeds: 500})-[:LocatedIn]->(r)",
            "MATCH (a:Hospital {name: 'Sacco'}), (b:Hospital {name: 'Meyer'}) \
             CREATE (a)-[:ConnectedTo {distance: 12}]->(b)",
            "MATCH (a:Hospital {name: 'Sacco'}), (b:Hospital {name: 'Niguarda'}) \
             CREATE (a)-[:ConnectedTo {distance: 3}]->(b)",
            "CREATE (:CriticalEffect {name: 'SevereOutcome'})",
            "CREATE (:Lineage {name: 'B.1.617.2', whoDesignation: 'Indian'})",
            "CREATE (:Sequence {accession: 'SEQ-1'})",
        ];
        assert_eq!(stmts[..want.len()], want);
        assert_eq!(stmts[want.len()..], PAPER_TRIGGERS);
        assert_eq!(stmts.iter().map(String::len).sum::<usize>(), 3751);
    }

    /// The wire statements must stand up the scenario on a plain session
    /// (what the server does with them), and the cascade probes must
    /// behave as documented.
    #[test]
    fn setup_statements_execute_and_cascade() {
        let mut s = Session::new();
        for stmt in setup_statements() {
            s.execute(&stmt)
                .unwrap_or_else(|e| panic!("{stmt}\nfailed: {e}"));
        }
        // Seeding fired nothing (triggers installed last).
        assert_eq!(s.stats().fired, 0);

        // A tagged critical discovery raises exactly its alert, atomically.
        s.run(&discover_critical_mutation(7)).unwrap();
        assert_eq!(s.stats().fired, 1);
        let out = s.run(&cascade_alert_query(7)).unwrap();
        assert_eq!(out.single().and_then(|v| v.as_i64()), Some(1));

        // Overflow Sacco: beds + 2 admissions; the relocation triggers
        // move the overflow, and no patient is ever orphaned.
        let total = SACCO_ICU_BEDS + 2;
        for i in 0..total {
            s.run(&icu_admission(i as u64, "Sacco", 5)).unwrap();
        }
        let orphans = s.run(ORPHANED_PATIENTS_QUERY).unwrap();
        assert_eq!(orphans.single().and_then(|v| v.as_i64()), Some(0));
        let at_sacco = s.run(&treated_at_query("Sacco")).unwrap();
        assert!(
            at_sacco.single().and_then(|v| v.as_i64()).unwrap() <= SACCO_ICU_BEDS,
            "relocation cascade must keep Sacco at or under capacity"
        );
        let elsewhere: i64 = ["Meyer", "Niguarda"]
            .iter()
            .map(|h| {
                s.run(&treated_at_query(h))
                    .unwrap()
                    .single()
                    .and_then(|v| v.as_i64())
                    .unwrap()
            })
            .sum();
        assert_eq!(
            elsewhere + SACCO_ICU_BEDS,
            total,
            "every overflow admission relocated"
        );
    }
}
