//! Synthetic CoV2K data generator.
//!
//! The paper's running example is backed by the authors' CoV2K knowledge
//! base, which derives from non-redistributable sequence repositories.
//! We substitute a seeded synthetic generator over the same PG-Schema
//! (Figure 4): identical labels, properties, relationship types,
//! hierarchies, and configurable cardinalities/fan-outs, so every trigger
//! code path the paper exercises is preserved.

use pg_graph::{Graph, NodeId, PropertyMap, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator knobs.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    pub regions: usize,
    /// Hospitals per region (the first region is Lombardy and always hosts
    /// the paper's `Sacco`; the second is Tuscany with `Meyer`).
    pub hospitals_per_region: usize,
    pub icu_beds_per_hospital: i64,
    pub labs_per_region: usize,
    pub mutations: usize,
    /// Fraction of mutations linked to a critical effect via `Risk`.
    pub critical_fraction: f64,
    pub effects: usize,
    pub lineages: usize,
    /// Fraction of lineages with a `whoDesignation`.
    pub designated_fraction: f64,
    pub sequences: usize,
    /// Mutations found in each sequence (uniform 1..=max).
    pub max_mutations_per_sequence: usize,
    pub patients: usize,
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            regions: 3,
            hospitals_per_region: 4,
            icu_beds_per_hospital: 20,
            labs_per_region: 2,
            mutations: 40,
            critical_fraction: 0.2,
            effects: 8,
            lineages: 12,
            designated_fraction: 0.5,
            sequences: 200,
            max_mutations_per_sequence: 4,
            patients: 300,
            seed: 42,
        }
    }
}

/// Handles to the generated entities (for scenario drivers and tests).
#[derive(Debug, Clone, Default)]
pub struct CovidDataset {
    pub regions: Vec<NodeId>,
    pub hospitals: Vec<NodeId>,
    pub labs: Vec<NodeId>,
    pub mutations: Vec<NodeId>,
    pub effects: Vec<NodeId>,
    pub lineages: Vec<NodeId>,
    pub sequences: Vec<NodeId>,
    pub patients: Vec<NodeId>,
    /// Index of the `Sacco` hospital in `hospitals`.
    pub sacco: usize,
    /// Index of the `Meyer` hospital in `hospitals`.
    pub meyer: usize,
}

fn props(entries: Vec<(&str, Value)>) -> PropertyMap {
    entries
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

const EFFECT_DESCRIPTIONS: [&str; 8] = [
    "Enhanced infectivity",
    "Immune evasion",
    "Antiviral resistance",
    "Increased transmissibility",
    "Monoclonal antibody escape",
    "Vaccine efficacy reduction",
    "Enhanced replication",
    "Severity increase",
];

const PROTEINS: [&str; 6] = ["Spike", "N", "M", "E", "ORF1a", "ORF8"];
const AMINO: [char; 12] = ['A', 'C', 'D', 'E', 'F', 'G', 'K', 'L', 'N', 'R', 'S', 'Y'];

/// Generate the baseline CoV2K dataset directly into the graph (bulk load,
/// no trigger processing — the scenario driver later produces the
/// trigger-visible events through the session).
pub fn generate(graph: &mut Graph, cfg: &GeneratorConfig) -> CovidDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ds = CovidDataset::default();

    // Regions: Lombardy and Tuscany first (the paper's scenario), then
    // synthetic ones.
    let region_names: Vec<String> = (0..cfg.regions)
        .map(|i| match i {
            0 => "Lombardy".to_string(),
            1 => "Tuscany".to_string(),
            i => format!("Region{i}"),
        })
        .collect();
    for name in &region_names {
        let id = graph
            .create_node(["Region"], props(vec![("name", Value::str(name.clone()))]))
            .unwrap();
        ds.regions.push(id);
    }

    // Hospitals with ICU beds, located in their region, pairwise connected
    // with random distances (complete graph within a region + a few
    // inter-region links so relocation can always find a target).
    for (ri, &region) in ds.regions.iter().enumerate() {
        for hi in 0..cfg.hospitals_per_region {
            let name = match (ri, hi) {
                (0, 0) => "Sacco".to_string(),
                (1, 0) => "Meyer".to_string(),
                _ => format!("Hospital-{ri}-{hi}"),
            };
            let beds = cfg.icu_beds_per_hospital
                + rng.gen_range(-2..=2).max(1 - cfg.icu_beds_per_hospital);
            let id = graph
                .create_node(
                    ["Hospital"],
                    props(vec![
                        ("name", Value::str(name)),
                        ("icuBeds", Value::Int(beds)),
                    ]),
                )
                .unwrap();
            graph
                .create_rel(id, region, "LocatedIn", PropertyMap::new())
                .unwrap();
            if name_of(graph, id) == "Sacco" {
                ds.sacco = ds.hospitals.len();
            }
            if name_of(graph, id) == "Meyer" {
                ds.meyer = ds.hospitals.len();
            }
            ds.hospitals.push(id);
        }
    }
    // connectivity: ring over all hospitals + random chords
    let n = ds.hospitals.len();
    for i in 0..n {
        let j = (i + 1) % n;
        if i != j {
            let d = rng.gen_range(5..120);
            graph
                .create_rel(
                    ds.hospitals[i],
                    ds.hospitals[j],
                    "ConnectedTo",
                    props(vec![("distance", Value::Int(d))]),
                )
                .unwrap();
        }
    }
    for _ in 0..n {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            let d = rng.gen_range(5..300);
            graph
                .create_rel(
                    ds.hospitals[i],
                    ds.hospitals[j],
                    "ConnectedTo",
                    props(vec![("distance", Value::Int(d))]),
                )
                .unwrap();
        }
    }

    // Laboratories.
    for (ri, &region) in ds.regions.iter().enumerate() {
        for li in 0..cfg.labs_per_region {
            let id = graph
                .create_node(
                    ["Laboratory"],
                    props(vec![("name", Value::str(format!("Lab-{ri}-{li}")))]),
                )
                .unwrap();
            graph
                .create_rel(id, region, "LocatedIn", PropertyMap::new())
                .unwrap();
            ds.labs.push(id);
        }
    }

    // Critical effects.
    for i in 0..cfg.effects {
        let id = graph
            .create_node(
                ["CriticalEffect"],
                props(vec![(
                    "description",
                    Value::str(EFFECT_DESCRIPTIONS[i % EFFECT_DESCRIPTIONS.len()]),
                )]),
            )
            .unwrap();
        ds.effects.push(id);
    }

    // Mutations; a fraction carries a Risk edge to a critical effect.
    for i in 0..cfg.mutations {
        let protein = PROTEINS[rng.gen_range(0..PROTEINS.len())];
        let name = format!(
            "{protein}:{}{}{}",
            AMINO[rng.gen_range(0..AMINO.len())],
            100 + i,
            AMINO[rng.gen_range(0..AMINO.len())]
        );
        let id = graph
            .create_node(
                ["Mutation"],
                props(vec![
                    ("name", Value::str(name)),
                    ("protein", Value::str(protein)),
                ]),
            )
            .unwrap();
        if rng.gen_bool(cfg.critical_fraction) && !ds.effects.is_empty() {
            let e = ds.effects[rng.gen_range(0..ds.effects.len())];
            graph.create_rel(id, e, "Risk", PropertyMap::new()).unwrap();
        }
        ds.mutations.push(id);
    }

    // Lineages.
    const WHO: [&str; 8] = [
        "Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Lambda", "Mu", "Omicron",
    ];
    for i in 0..cfg.lineages {
        let mut entries = vec![("name", Value::str(format!("B.1.{i}")))];
        if rng.gen_bool(cfg.designated_fraction) {
            entries.push(("whoDesignation", Value::str(WHO[i % WHO.len()])));
        }
        let id = graph.create_node(["Lineage"], props(entries)).unwrap();
        ds.lineages.push(id);
    }

    // Sequences with mutations, lineage, lab.
    for i in 0..cfg.sequences {
        let id = graph
            .create_node(
                ["Sequence"],
                props(vec![
                    ("accession", Value::str(format!("SEQ{i:06}"))),
                    ("collection", Value::Date(18_600 + rng.gen_range(0..700))),
                ]),
            )
            .unwrap();
        let k = rng.gen_range(1..=cfg.max_mutations_per_sequence.max(1));
        for _ in 0..k {
            let m = ds.mutations[rng.gen_range(0..ds.mutations.len().max(1))];
            graph
                .create_rel(m, id, "FoundIn", PropertyMap::new())
                .unwrap();
        }
        if !ds.lineages.is_empty() {
            let l = ds.lineages[rng.gen_range(0..ds.lineages.len())];
            graph
                .create_rel(id, l, "BelongsTo", PropertyMap::new())
                .unwrap();
        }
        if !ds.labs.is_empty() {
            let lab = ds.labs[rng.gen_range(0..ds.labs.len())];
            graph
                .create_rel(id, lab, "SequencedAt", PropertyMap::new())
                .unwrap();
        }
        ds.sequences.push(id);
    }

    // Patients, some with samples. `status`/`severity` back the paper's
    // §6 conjunction shape (`{status: 'icu'} WHERE severity >= t`) served
    // by the composite (Patient, [status, severity]) index.
    const COMORBIDITIES: [&str; 5] = ["diabetes", "hypertension", "asthma", "obesity", "copd"];
    const STATUSES: [&str; 3] = ["home", "ward", "icu"];
    for i in 0..cfg.patients {
        let sex = if rng.gen_bool(0.5) { "F" } else { "M" };
        let status = STATUSES[match rng.gen_range(0..10) {
            0 => 2,     // 10% icu
            1..=3 => 1, // 30% ward
            _ => 0,     // 60% home
        }];
        let mut entries = vec![
            ("ssn", Value::str(format!("SSN{i:08}"))),
            ("name", Value::str(format!("Patient {i}"))),
            ("sex", Value::str(sex)),
            ("vaccinated", Value::Int(rng.gen_range(0..4))),
            ("status", Value::str(status)),
            ("severity", Value::Int(rng.gen_range(0..100))),
        ];
        if rng.gen_bool(0.3) {
            let c = COMORBIDITIES[rng.gen_range(0..COMORBIDITIES.len())];
            entries.push(("comorbidity", Value::list([Value::str(c)])));
        }
        let id = graph.create_node(["Patient"], props(entries)).unwrap();
        if !ds.sequences.is_empty() && rng.gen_bool(0.4) {
            let s = ds.sequences[rng.gen_range(0..ds.sequences.len())];
            graph
                .create_rel(id, s, "HasSample", PropertyMap::new())
                .unwrap();
        }
        ds.patients.push(id);
    }

    // Bulk loads bypass the histogram's amortized rebuild cadence; start
    // planning from fresh, zero-drift statistics for any index that
    // existed through the load (e.g. schema-declared indexes).
    graph.rebuild_stats();

    ds
}

fn name_of(graph: &Graph, id: NodeId) -> String {
    use pg_graph::GraphView;
    match graph.node(id).and_then(|n| n.props.get("name")) {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::covid_graph_type;
    use pg_graph::GraphView;
    use pg_schema::validate_graph;

    #[test]
    fn generated_data_conforms_to_schema() {
        let mut g = Graph::new();
        let cfg = GeneratorConfig::default();
        let ds = generate(&mut g, &cfg);
        let gt = covid_graph_type();
        let violations = validate_graph(&g, &gt);
        assert_eq!(violations, vec![], "schema violations in generated data");
        assert_eq!(ds.regions.len(), cfg.regions);
        assert_eq!(ds.hospitals.len(), cfg.regions * cfg.hospitals_per_region);
        assert_eq!(ds.sequences.len(), cfg.sequences);
        assert_eq!(ds.patients.len(), cfg.patients);
    }

    #[test]
    fn sacco_and_meyer_exist() {
        let mut g = Graph::new();
        let ds = generate(&mut g, &GeneratorConfig::default());
        assert_eq!(name_of(&g, ds.hospitals[ds.sacco]), "Sacco");
        assert_eq!(name_of(&g, ds.hospitals[ds.meyer]), "Meyer");
        // Sacco is in Lombardy
        let sacco = ds.hospitals[ds.sacco];
        let located = g.hops(sacco, pg_graph::Direction::Out, Some("LocatedIn"));
        let region = located.first().unwrap().1;
        assert_eq!(
            g.node(region).and_then(|n| n.props.get("name")).cloned(),
            Some(Value::str("Lombardy"))
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut g1 = Graph::new();
        let mut g2 = Graph::new();
        let cfg = GeneratorConfig::default();
        generate(&mut g1, &cfg);
        generate(&mut g2, &cfg);
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(g1.rel_count(), g2.rel_count());
        let mut cfg2 = cfg.clone();
        cfg2.seed = 7;
        let mut g3 = Graph::new();
        generate(&mut g3, &cfg2);
        // same cardinalities, very likely different wiring
        assert_eq!(g1.node_count(), g3.node_count());
    }

    #[test]
    fn bulk_load_then_rebuild_keeps_drift_bound() {
        // ROADMAP: "the incremental histogram drifts through bulk loads".
        // `generate` now ends with `rebuild_stats`, so an index that lived
        // through the load answers range estimates within the zero-drift
        // bound 2·depth (instead of 2·depth + total/8).
        use std::ops::Bound;
        let mut g = Graph::new();
        g.create_index("Patient", "severity");
        let cfg = GeneratorConfig {
            patients: 2000,
            ..GeneratorConfig::default()
        };
        generate(&mut g, &cfg);
        let exact = g
            .nodes_with_label("Patient")
            .iter()
            .filter(|&&id| matches!(g.node(id).and_then(|n| n.props.get("severity")), Some(Value::Int(v)) if *v < 50))
            .count();
        let est = g
            .count_nodes_in_prop_range(
                "Patient",
                "severity",
                Bound::Unbounded,
                Bound::Excluded(&Value::Int(50)),
            )
            .unwrap();
        let depth = cfg.patients.div_ceil(32);
        assert!(
            est.abs_diff(exact) <= 2 * depth,
            "estimate {est} vs exact {exact} outside the zero-drift bound {}",
            2 * depth
        );
    }

    #[test]
    fn critical_fraction_respected_roughly() {
        let mut g = Graph::new();
        let cfg = GeneratorConfig {
            mutations: 200,
            critical_fraction: 0.5,
            ..GeneratorConfig::default()
        };
        generate(&mut g, &cfg);
        let risky = g.rels_with_type("Risk").len();
        assert!((60..=140).contains(&risky), "risky = {risky}");
    }
}
