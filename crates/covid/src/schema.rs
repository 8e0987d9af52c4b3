//! The CoV2K PG-Schema of the paper's running example (Figures 4–5).

use pg_schema::{parse_graph_type, GraphType};

/// The PG-Schema DDL of Figure 5 (as reconstructed from Figure 4's
/// diagram): node types with the `Patient → HospitalizedPatient →
/// IcuPatient` hierarchy, the `Alert` OPEN type used by the §6.2 triggers,
/// and every edge type of the diagram.
pub const COVID_SCHEMA_DDL: &str = "
CREATE GRAPH TYPE CovidGraphType STRICT {
  (MutationType: Mutation {name STRING, protein STRING}),
  (CriticalEffectType: CriticalEffect {description STRING}),
  (SequenceType: Sequence {accession STRING KEY, collection DATE}),
  (LineageType: Lineage {name STRING, OPTIONAL whoDesignation STRING}),
  (LaboratoryType: Laboratory {name STRING}),
  (RegionType: Region {name STRING}),
  (HospitalType: Hospital {name STRING, icuBeds INT32}),
  (PatientType: Patient {ssn STRING KEY, name STRING, sex STRING,
                         OPTIONAL comorbidity ARRAY[string],
                         OPTIONAL vaccinated INT32,
                         OPTIONAL status STRING, OPTIONAL severity INT32,
                         INDEX(status, severity)}),
  (HospitalizedPatientType: PatientType & HospitalizedPatient
                            {id INT32, prognosis STRING}),
  (IcuPatientType: HospitalizedPatientType & IcuPatient
                   {admittedToICU BOOL, OPTIONAL admission DATE}),
  (AlertType: Alert OPEN {time DATETIME, desc STRING}),

  (:MutationType)-[RiskType: Risk]->(:CriticalEffectType),
  (:MutationType)-[FoundInType: FoundIn]->(:SequenceType),
  (:SequenceType)-[BelongsToType: BelongsTo]->(:LineageType),
  (:SequenceType)-[SequencedAtType: SequencedAt]->(:LaboratoryType),
  (:LaboratoryType)-[LabLocatedInType: LocatedIn]->(:RegionType),
  (:HospitalType)-[HospLocatedInType: LocatedIn]->(:RegionType),
  (:PatientType)-[HasSampleType: HasSample]->(:SequenceType),
  (:HospitalizedPatientType)-[TreatedAtType: TreatedAt]->(:HospitalType),
  (:HospitalType)-[ConnectedToType: ConnectedTo {distance INT32}]->(:HospitalType)
}";

/// Parse and check the CoV2K graph type.
pub fn covid_graph_type() -> GraphType {
    parse_graph_type(COVID_SCHEMA_DDL).expect("the CoV2K schema is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_parses_and_checks() {
        let gt = covid_graph_type();
        assert_eq!(gt.name, "CovidGraphType");
        assert!(gt.strict);
        assert_eq!(gt.node_types.len(), 11);
        assert_eq!(gt.edge_types.len(), 9);
    }

    #[test]
    fn hierarchy_accumulates_labels() {
        let gt = covid_graph_type();
        let labels = gt.full_labels("IcuPatientType");
        assert!(labels.contains("Patient"));
        assert!(labels.contains("HospitalizedPatient"));
        assert!(labels.contains("IcuPatient"));
        // and the keys are inherited from Patient
        assert_eq!(gt.key_props("IcuPatientType"), vec!["ssn"]);
    }

    #[test]
    fn patient_declares_the_composite_paper_index() {
        // §6's conjunction shape `{status: 'ICU'} WHERE severity >= t` is
        // backed by a composite INDEX(status, severity) declaration that
        // `set_schema` auto-creates.
        let gt = covid_graph_type();
        let composite = [pg_graph::IndexDef::node("Patient", &["status", "severity"])];
        let wide = |defs: Vec<pg_graph::IndexDef>| -> Vec<_> {
            defs.into_iter().filter(|d| d.columns.len() > 1).collect()
        };
        assert_eq!(wide(gt.index_defs()), composite);
        let mut s = pg_triggers::Session::new();
        s.set_schema(gt);
        assert_eq!(wide(s.indexes()), composite);
    }

    #[test]
    fn alert_is_open() {
        let gt = covid_graph_type();
        assert!(gt.is_open("AlertType"));
        assert!(!gt.is_open("PatientType"));
    }
}
