//! The COVID-19 reactive scenario driver (paper §6).
//!
//! Drives the events the paper's triggers monitor — critical-mutation
//! discovery, lineage assignment, WHO redesignation, and ICU admission
//! waves — through a PG-Trigger [`Session`] so the §6.2 triggers fire, and
//! reports the resulting alerts and patient relocations.

use crate::generator::{generate, CovidDataset, GeneratorConfig};
use crate::triggers::install_paper_triggers;
use pg_graph::Value;
use pg_triggers::{Session, TriggerError};
use std::collections::BTreeMap;

/// Scenario knobs.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub generator: GeneratorConfig,
    /// Number of admission waves.
    pub waves: usize,
    /// ICU admissions per wave.
    pub admissions_per_wave: usize,
    /// Critical mutations discovered during the scenario.
    pub discoveries: usize,
    /// Lineage redesignations during the scenario.
    pub redesignations: usize,
    /// Create the property indexes behind the paper triggers' equality
    /// predicates ([`crate::triggers::PAPER_INDEXES`]) before the run.
    pub indexed: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            generator: GeneratorConfig::default(),
            waves: 4,
            admissions_per_wave: 8,
            discoveries: 3,
            redesignations: 2,
            indexed: false,
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioReport {
    /// Alert description → count.
    pub alerts: BTreeMap<String, u64>,
    /// Patients no longer treated where they were admitted.
    pub relocated_patients: u64,
    /// Total ICU admissions performed.
    pub admissions: u64,
    /// Trigger firings observed by the engine.
    pub triggers_fired: u64,
}

impl ScenarioReport {
    pub fn total_alerts(&self) -> u64 {
        self.alerts.values().sum()
    }
}

/// A fully prepared scenario: session with data and triggers installed.
pub struct Scenario {
    pub session: Session,
    pub dataset: CovidDataset,
    cfg: ScenarioConfig,
    admission_counter: usize,
}

impl Scenario {
    /// Build the baseline dataset (bulk-loaded, trigger-silent) and install
    /// the §6.2 triggers.
    pub fn new(cfg: ScenarioConfig) -> Scenario {
        let mut session = Session::new();
        let dataset = generate(session.graph_mut(), &cfg.generator);
        if cfg.indexed {
            crate::triggers::install_paper_indexes(&mut session);
        }
        install_paper_triggers(&mut session).expect("paper triggers install");
        Scenario {
            session,
            dataset,
            cfg,
            admission_counter: 0,
        }
    }

    /// Build the scenario on a **durable** session rooted at `dir`.
    ///
    /// The baseline dataset is bulk-loaded outside any transaction, so the
    /// generator's writes bypass the WAL entirely; the checkpoint taken
    /// right after (and after the paper indexes, when enabled, so their
    /// definitions land in the snapshot) is what makes the baseline
    /// durable. Every subsequent scenario event commits through the WAL
    /// and survives a crash.
    pub fn new_durable(
        cfg: ScenarioConfig,
        dir: &std::path::Path,
        wal: pg_triggers::WalOptions,
    ) -> Result<Scenario, pg_triggers::RecoveryError> {
        let (mut session, _) =
            Session::open_durable(dir, pg_triggers::EngineConfig::default(), wal)?;
        let dataset = generate(session.graph_mut(), &cfg.generator);
        if cfg.indexed {
            crate::triggers::install_paper_indexes(&mut session);
        }
        session
            .checkpoint()
            .map_err(pg_triggers::RecoveryError::from)?;
        install_paper_triggers(&mut session).expect("paper triggers install");
        Ok(Scenario {
            session,
            dataset,
            cfg,
            admission_counter: 0,
        })
    }

    /// Discover a new mutation; when `critical`, it is linked to a critical
    /// effect in the same statement (fires `NewCriticalMutation`).
    pub fn discover_mutation(&mut self, idx: usize, critical: bool) -> Result<(), TriggerError> {
        let name = format!("Spike:X{idx}Z");
        if critical {
            self.session.run(&format!(
                "MATCH (e:CriticalEffect) WITH e LIMIT 1 \
                 CREATE (:Mutation {{name: '{name}', protein: 'Spike'}})-[:Risk]->(e)"
            ))?;
        } else {
            self.session.run(&format!(
                "CREATE (:Mutation {{name: '{name}', protein: 'Spike'}})"
            ))?;
        }
        Ok(())
    }

    /// Attach a fresh sequence carrying a critical mutation to a lineage
    /// (fires `NewCriticalLineage`).
    pub fn assign_critical_sequence(&mut self, idx: usize) -> Result<(), TriggerError> {
        self.session.run(&format!(
            "CREATE (:Sequence {{accession: 'SCN{idx:04}', collection: date()}})"
        ))?;
        self.session.run(&format!(
            "MATCH (s:Sequence {{accession: 'SCN{idx:04}'}}) \
             MATCH (m:Mutation)-[:Risk]-(:CriticalEffect) WITH s, m LIMIT 1 \
             CREATE (m)-[:FoundIn]->(s)"
        ))?;
        self.session.run(&format!(
            "MATCH (s:Sequence {{accession: 'SCN{idx:04}'}}), (l:Lineage) \
             WITH s, l LIMIT 1 CREATE (s)-[:BelongsTo]->(l)"
        ))?;
        Ok(())
    }

    /// Change a lineage's WHO designation (fires `WhoDesignationChange`).
    pub fn redesignate(&mut self, to: &str) -> Result<(), TriggerError> {
        self.session.run(&format!(
            "MATCH (l:Lineage) WHERE l.whoDesignation IS NOT NULL \
             WITH l LIMIT 1 SET l.whoDesignation = '{to}'"
        ))?;
        Ok(())
    }

    /// Admit `n` new ICU patients to the named hospital in one statement
    /// (fires the ICU triggers; may relocate patients).
    pub fn admission_wave(&mut self, hospital: &str, n: usize) -> Result<(), TriggerError> {
        if n == 0 {
            return Ok(());
        }
        let mut q = format!("MATCH (h:Hospital {{name: '{hospital}'}}) CREATE ");
        let patterns: Vec<String> = (0..n)
            .map(|i| {
                let k = self.admission_counter + i;
                format!(
                    "(:Patient:HospitalizedPatient:IcuPatient {{\
                     ssn: 'ADM{k:08}', name: 'Admitted {k}', sex: 'F', \
                     id: {k}, prognosis: 'severe', admittedToICU: true, \
                     admission: date()}})-[:TreatedAt]->(h)"
                )
            })
            .collect();
        q.push_str(&patterns.join(", "));
        self.admission_counter += n;
        self.session.run(&q)?;
        Ok(())
    }

    /// Run the whole configured scenario.
    pub fn run(&mut self) -> Result<ScenarioReport, TriggerError> {
        let cfg = self.cfg.clone();
        for i in 0..cfg.discoveries {
            self.discover_mutation(i, true)?;
            self.assign_critical_sequence(i)?;
        }
        const WHO: [&str; 4] = ["Delta", "Omicron", "Kappa", "Eta"];
        for i in 0..cfg.redesignations {
            self.redesignate(WHO[i % WHO.len()])?;
        }
        for w in 0..cfg.waves {
            // Alternate waves between Sacco and another Lombardy hospital.
            let target = if w % 2 == 0 { "Sacco" } else { "Hospital-0-1" };
            self.admission_wave(target, cfg.admissions_per_wave)?;
        }
        self.report()
    }

    /// Summarize the observable outcomes.
    pub fn report(&mut self) -> Result<ScenarioReport, TriggerError> {
        let mut report = ScenarioReport {
            admissions: self.admission_counter as u64,
            triggers_fired: self.session.stats().fired,
            ..ScenarioReport::default()
        };
        let out = self
            .session
            .run("MATCH (a:Alert) RETURN a.desc AS d, count(*) AS n")?;
        for row in &out.rows {
            if let (Value::Str(d), Value::Int(n)) = (&row[0], &row[1]) {
                report.alerts.insert(d.clone(), *n as u64);
            }
        }
        let out = self.session.run(
            "MATCH (p:IcuPatient)-[:TreatedAt]-(h:Hospital) \
             WHERE p.ssn STARTS WITH 'ADM' AND NOT (h.name = 'Sacco' OR h.name = 'Hospital-0-1') \
             RETURN count(DISTINCT p) AS n",
        )?;
        report.relocated_patients = out.single().and_then(|v| v.as_i64()).unwrap_or(0) as u64;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ScenarioConfig {
        ScenarioConfig {
            generator: GeneratorConfig {
                regions: 2,
                hospitals_per_region: 2,
                icu_beds_per_hospital: 10,
                labs_per_region: 1,
                mutations: 10,
                critical_fraction: 0.3,
                effects: 3,
                lineages: 4,
                designated_fraction: 0.8,
                sequences: 20,
                max_mutations_per_sequence: 2,
                patients: 20,
                seed: 1,
            },
            waves: 3,
            admissions_per_wave: 6,
            discoveries: 2,
            redesignations: 1,
            indexed: false,
        }
    }

    #[test]
    fn scenario_produces_alerts() {
        let mut sc = Scenario::new(small_cfg());
        let report = sc.run().unwrap();
        assert!(
            report.alerts.contains_key("New critical mutation"),
            "{report:?}"
        );
        assert!(
            report.alerts.contains_key("New critical lineage"),
            "{report:?}"
        );
        assert!(
            report
                .alerts
                .contains_key("New Designation for an existing Lineage"),
            "{report:?}"
        );
        assert_eq!(report.admissions, 18);
        assert!(report.triggers_fired >= report.total_alerts());
    }

    #[test]
    fn indexed_scenario_reports_identically() {
        // The candidate planner must be invisible to trigger semantics:
        // the same seeded scenario produces the same report with and
        // without the paper indexes.
        let baseline = Scenario::new(small_cfg()).run().unwrap();
        let mut cfg = small_cfg();
        cfg.indexed = true;
        let mut sc = Scenario::new(cfg);
        assert!(!sc.session.indexes().is_empty());
        let indexed = sc.run().unwrap();
        assert_eq!(baseline, indexed);
    }

    #[test]
    fn overflow_wave_relocates_patients() {
        // Sacco has 10 beds; a 14-patient wave overflows it and the new
        // arrivals relocate (IcuPatientMove → Meyer, or MoveToNearHospital).
        let mut cfg = small_cfg();
        cfg.waves = 0;
        let mut sc = Scenario::new(cfg);
        sc.admission_wave("Sacco", 14).unwrap();
        let report = sc.report().unwrap();
        let at_sacco = sc
            .session
            .run(
                "MATCH (p:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'}) \
                 RETURN count(DISTINCT p) AS n",
            )
            .unwrap()
            .single()
            .and_then(|v| v.as_i64())
            .unwrap();
        assert!(at_sacco <= 14, "sacco load: {at_sacco}");
        // someone moved somewhere (Meyer via IcuPatientMove, or the nearest
        // hospital via MoveToNearHospital)
        let moved = sc
            .session
            .run(
                "MATCH (p:IcuPatient)-[:TreatedAt]-(h:Hospital) \
                 WHERE h.name <> 'Sacco' RETURN count(DISTINCT p) AS n",
            )
            .unwrap()
            .single()
            .and_then(|v| v.as_i64())
            .unwrap();
        assert!(moved > 0, "no relocations: {report:?}");
    }

    #[test]
    fn relocation_trigger_served_by_indexed_topk() {
        // With the paper indexes installed (incl. ConnectedTo.distance),
        // the §6.2.3 MoveToNearHospital body's `ORDER BY ct.distance
        // LIMIT 1` is served from the ordered rel-index walk — observable
        // via the ordered-probe counter — and relocations still happen.
        let mut cfg = small_cfg();
        cfg.waves = 0;
        cfg.indexed = true;
        let mut sc = Scenario::new(cfg);
        sc.session.graph().reset_index_probes();
        sc.admission_wave("Sacco", 14).unwrap();
        let probes = sc.session.graph().index_probes();
        assert!(
            probes.ordered >= 1,
            "relocation should walk the ordered rel index: {probes:?}"
        );
        let moved = sc
            .session
            .run(
                "MATCH (p:IcuPatient)-[:TreatedAt]-(h:Hospital) \
                 WHERE h.name <> 'Sacco' RETURN count(DISTINCT p) AS n",
            )
            .unwrap()
            .single()
            .and_then(|v| v.as_i64())
            .unwrap();
        assert!(moved > 0, "no relocations through the indexed path");
    }

    #[test]
    fn composite_paper_index_serves_severity_conjunction_and_topk() {
        // The §6 conjunction shape over the generated population: with the
        // composite (Patient, [status, severity]) paper index the
        // conjunctive filter and the pinned `ORDER BY severity LIMIT k`
        // are index-served, and the answers match the unindexed twin
        // exactly.
        let conj = "MATCH (p:Patient {status: 'icu'}) WHERE p.severity >= 60 \
                    RETURN count(*) AS n";
        let topk = "MATCH (p:Patient {status: 'icu'}) \
                    WITH p ORDER BY p.severity DESC LIMIT 3 RETURN p.severity AS s";
        let mut plain = Scenario::new(small_cfg());
        let mut cfg = small_cfg();
        cfg.indexed = true;
        let mut indexed = Scenario::new(cfg);
        let paper_composite = pg_graph::IndexDef::node("Patient", &["status", "severity"]);
        assert!(indexed.session.indexes().contains(&paper_composite));
        let a = plain.session.run(conj).unwrap();
        indexed.session.graph().reset_index_probes();
        let b = indexed.session.run(conj).unwrap();
        assert_eq!(a.rows, b.rows, "conjunction diverged");
        assert!(
            indexed.session.graph().index_probes().counting >= 1,
            "conjunction should be planned through count probes"
        );
        let a = plain.session.run(topk).unwrap();
        indexed.session.graph().reset_index_probes();
        let b = indexed.session.run(topk).unwrap();
        assert_eq!(a.rows, b.rows, "pinned top-k diverged");
        assert!(
            indexed.session.graph().index_probes().ordered >= 1,
            "pinned top-k should walk the composite index"
        );
    }

    #[test]
    fn explain_surfaces_paper_query_plan() {
        // `EXPLAIN` through the session on a §6 query shape: the report
        // names the chosen access path, carries a join-output estimate
        // for the hop (degree statistics over the generated population),
        // and its actual-row count agrees with really running the query.
        let mut cfg = small_cfg();
        cfg.indexed = true;
        let mut sc = Scenario::new(cfg);
        let q = "MATCH (s:Sequence)-[:BelongsTo]->(l:Lineage) \
                 RETURN l.name AS l, count(s) AS n";
        let report = match sc.session.execute(&format!("EXPLAIN {q}")).unwrap() {
            pg_triggers::ExecResult::Explain(r) => r,
            other => panic!("expected Explain, got {other:?}"),
        };
        assert!(report.contains("Seed ("), "{report}");
        assert!(report.contains("Expand "), "{report}");
        assert!(report.contains("fanout="), "{report}");
        assert!(report.contains("estimated match rows:"), "{report}");
        let actual = sc.session.run(q).unwrap().rows.len();
        assert!(actual > 0, "fixture must produce rows");
        assert!(
            report.contains(&format!("actual rows: {actual}")),
            "{report}"
        );
    }

    #[test]
    fn batched_executor_agrees_on_scenario_graph() {
        // The batched executor must be invisible on the paper's data:
        // multi-seed pipelines over the generated population produce
        // row-for-row identical output under both match modes.
        use pg_cypher::{parse_query, Executor, MatchMode, Params, Target};
        let mut sc = Scenario::new(small_cfg());
        sc.run().unwrap();
        let params = Params::new();
        for q in [
            "MATCH (h:Hospital) MATCH (p:IcuPatient)-[:TreatedAt]->(h2:Hospital) \
             WHERE h2.name = h.name RETURN h.name AS h, count(p) AS n",
            "MATCH (m:Mutation) OPTIONAL MATCH (m)-[:FoundIn]->(s:Sequence) \
             RETURN count(s) AS n",
            "MATCH (l:Lineage) MATCH (s:Sequence)-[:BelongsTo]->(l) \
             RETURN l.name AS l, count(s) AS n",
        ] {
            let query = parse_query(q).unwrap();
            let g = sc.session.graph();
            let batched = Executor::new(Target::Read(g), &params, 0)
                .with_match_mode(MatchMode::Batched)
                .run(&query, Vec::new())
                .unwrap();
            let reference = Executor::new(Target::Read(g), &params, 0)
                .with_match_mode(MatchMode::Reference)
                .run(&query, Vec::new())
                .unwrap();
            assert!(!reference.rows.is_empty(), "vacuous panel query: {q}");
            assert_eq!(batched.rows, reference.rows, "{q}");
        }
    }

    #[test]
    fn icu_threshold_alert_at_51() {
        let mut cfg = small_cfg();
        cfg.generator.icu_beds_per_hospital = 100; // no relocations
        cfg.waves = 0;
        let mut sc = Scenario::new(cfg);
        sc.admission_wave("Sacco", 40).unwrap();
        let report = sc.report().unwrap();
        assert!(!report
            .alerts
            .contains_key("ICU patients at Sacco Hospital are more than 50"));
        sc.admission_wave("Sacco", 15).unwrap();
        let report = sc.report().unwrap();
        assert!(
            report
                .alerts
                .contains_key("ICU patients at Sacco Hospital are more than 50"),
            "{report:?}"
        );
    }
}
