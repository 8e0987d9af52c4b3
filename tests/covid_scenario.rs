//! §6 end-to-end: the CoV2K schema, the seven §6.2 triggers, and the
//! pandemic scenario, checked across crates.

use pg_covid::{GeneratorConfig, Scenario, ScenarioConfig};
use pg_graph::Value;
use pg_schema::validate_graph;

fn cfg() -> ScenarioConfig {
    ScenarioConfig {
        generator: GeneratorConfig {
            regions: 2,
            hospitals_per_region: 2,
            icu_beds_per_hospital: 15,
            labs_per_region: 1,
            mutations: 20,
            critical_fraction: 0.3,
            effects: 4,
            lineages: 6,
            designated_fraction: 0.7,
            sequences: 60,
            max_mutations_per_sequence: 3,
            patients: 80,
            seed: 7,
        },
        waves: 3,
        admissions_per_wave: 7,
        discoveries: 3,
        redesignations: 2,
        indexed: false,
    }
}

#[test]
fn full_scenario_fires_all_alert_kinds() {
    let mut sc = Scenario::new(cfg());
    let report = sc.run().unwrap();
    assert_eq!(report.alerts.get("New critical mutation"), Some(&3));
    assert!(report.alerts.contains_key("New critical lineage"));
    assert_eq!(
        report.alerts.get("New Designation for an existing Lineage"),
        Some(&2)
    );
    assert_eq!(report.admissions, 21);
    assert!(report.triggers_fired > 0);
}

#[test]
fn alerts_conform_to_open_schema_type() {
    // Alerts carry arbitrary extra properties (mutation, lineage) — legal
    // because AlertType is OPEN (§6.2: "a new, OPEN type").
    let mut sc = Scenario::new(cfg());
    sc.run().unwrap();
    let gt = pg_covid::covid_graph_type();
    let violations = validate_graph(sc.session.graph(), &gt);
    // admissions create ADM-patients: they conform; alerts conform; the
    // whole post-scenario graph must still validate.
    assert_eq!(
        violations,
        vec![],
        "post-scenario graph violates the schema"
    );
}

#[test]
fn icu_increase_alert_fires_on_late_wave() {
    // With 15 beds and 7-patient waves on Sacco alternating with another
    // hospital, the second Sacco wave adds 7 to ~7 existing → > 10%.
    let mut sc = Scenario::new(cfg());
    sc.admission_wave("Sacco", 7).unwrap();
    let r1 = sc.report().unwrap();
    // first wave: NewIcuPat == TotalIcuPat → ratio 1.0 > 0.1 → fires
    assert!(r1
        .alerts
        .contains_key("ICU patients at Sacco Hospital have increased by > 10%"));
}

#[test]
fn relocation_preserves_patient_count() {
    let mut sc = Scenario::new(ScenarioConfig {
        generator: GeneratorConfig {
            icu_beds_per_hospital: 5,
            ..cfg().generator
        },
        waves: 0,
        ..cfg()
    });
    sc.admission_wave("Sacco", 9).unwrap();
    // every admitted patient is still treated somewhere, exactly once
    let out = sc
        .session
        .run(
            "MATCH (p:IcuPatient) WHERE p.ssn STARTS WITH 'ADM' \
             OPTIONAL MATCH (p)-[t:TreatedAt]-(:Hospital) \
             WITH p, count(t) AS homes RETURN collect(homes) AS hs",
        )
        .unwrap();
    match out.single() {
        Some(Value::List(hs)) => {
            assert_eq!(hs.len(), 9);
            for h in hs {
                assert_eq!(h, &Value::Int(1), "patient with {h} hospitals");
            }
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn who_designation_trigger_ignores_fresh_assignment() {
    // Setting whoDesignation on a lineage that had none: OLD.who is null →
    // `OLD.who <> NEW.who` is NULL → no alert (3-valued logic, §4.1).
    let mut sc = Scenario::new(ScenarioConfig {
        waves: 0,
        discoveries: 0,
        redesignations: 0,
        ..cfg()
    });
    sc.session.run("CREATE (:Lineage {name: 'fresh'})").unwrap();
    sc.session
        .run("MATCH (l:Lineage {name: 'fresh'}) SET l.whoDesignation = 'Pi'")
        .unwrap();
    let report = sc.report().unwrap();
    assert_eq!(
        report.alerts.get("New Designation for an existing Lineage"),
        None
    );
    // but changing it afterwards fires
    sc.session
        .run("MATCH (l:Lineage {name: 'fresh'}) SET l.whoDesignation = 'Rho'")
        .unwrap();
    let report = sc.report().unwrap();
    assert_eq!(
        report.alerts.get("New Designation for an existing Lineage"),
        Some(&1)
    );
}

#[test]
fn scenario_is_deterministic() {
    let r1 = Scenario::new(cfg()).run().unwrap();
    let r2 = Scenario::new(cfg()).run().unwrap();
    assert_eq!(r1, r2);
}
