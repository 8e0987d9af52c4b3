//! The paper's §6 running example end-to-end: CoV2K data, the seven §6.2
//! triggers, and a pandemic-surveillance scenario with admission waves.
//!
//! ```text
//! cargo run --example covid_surveillance
//! ```

use pg_covid::{GeneratorConfig, Scenario, ScenarioConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ScenarioConfig {
        generator: GeneratorConfig {
            regions: 3,
            hospitals_per_region: 3,
            icu_beds_per_hospital: 12,
            patients: 400,
            sequences: 250,
            mutations: 50,
            ..GeneratorConfig::default()
        },
        waves: 5,
        admissions_per_wave: 9,
        discoveries: 4,
        redesignations: 2,
        indexed: false,
    };

    let mut scenario = Scenario::new(cfg);
    println!(
        "baseline CoV2K graph: {} nodes, {} relationships",
        scenario.session.graph().node_count(),
        scenario.session.graph().rel_count()
    );
    println!(
        "installed triggers: {:?}",
        scenario
            .session
            .catalog()
            .all()
            .map(|t| t.spec.name.clone())
            .collect::<Vec<_>>()
    );

    let report = scenario.run()?;

    println!("\n--- scenario report ---");
    println!("ICU admissions performed : {}", report.admissions);
    println!("trigger statements fired : {}", report.triggers_fired);
    println!("patients relocated       : {}", report.relocated_patients);
    println!("alerts:");
    for (desc, n) in &report.alerts {
        println!("  {n:>4} × {desc}");
    }

    // Where did everyone end up?
    let out = scenario.session.run(
        "MATCH (p:IcuPatient)-[:TreatedAt]-(h:Hospital)
         RETURN h.name AS hospital, count(DISTINCT p) AS patients
         ORDER BY patients DESC",
    )?;
    println!("\nICU load by hospital:");
    for row in &out.rows {
        println!("  {:<16} {}", row[0], row[1]);
    }
    Ok(())
}
