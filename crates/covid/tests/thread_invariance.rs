//! Batched-vs-reference twin over the §6 COVID scenario.
//!
//! A `MATCH` runs the one stage pipeline on the caller's thread, either
//! grouping the seed rows that share a plan (`MatchMode::Batched`, which
//! shares seed candidates and memoizes hops) or running every seed as its
//! own group, which shares nothing (`MatchMode::Reference`). This file
//! checks the two agree — every row, order included — on the paper's own
//! workload: a panel of multi-seed pipelines and ordered projections over
//! the finished scenario graph, so a sharing bug shows up as a row diff.
//! What a match is, independent of the planner, is
//! `crates/cypher/tests/match_oracle.rs`'s business.

use pg_covid::{GeneratorConfig, Scenario, ScenarioConfig};
use pg_cypher::{parse_query, Executor, MatchMode, Params, Target};

fn cfg() -> ScenarioConfig {
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
        indexed: true,
    }
}

/// Order-sensitive panel over the finished scenario: multi-seed
/// pipelines (the batched executor's grouping shape) plus ordered
/// projections, so a batching bug shows up as a row-order diff.
const PANEL: [&str; 4] = [
    "MATCH (h:Hospital) MATCH (p:IcuPatient)-[:TreatedAt]->(h2:Hospital) \
     WHERE h2.name = h.name RETURN h.name AS h, count(p) AS n",
    "MATCH (l:Lineage) MATCH (s:Sequence)-[:BelongsTo]->(l) \
     RETURN l.name AS l, count(s) AS n",
    "MATCH (m:Mutation) OPTIONAL MATCH (m)-[:FoundIn]->(s:Sequence) \
     RETURN m.name AS m, count(s) AS n ORDER BY m",
    "MATCH (p:IcuPatient)-[:TreatedAt]-(h:Hospital) \
     RETURN h.name AS h, count(DISTINCT p) AS n ORDER BY n DESC, h",
];

#[test]
fn batched_matches_reference_on_scenario_graph() {
    let mut sc = Scenario::new(cfg());
    sc.run().expect("scenario");
    let params = Params::new();
    let g = sc.session.graph();
    for q in PANEL {
        let query = parse_query(q).expect(q);
        let run = |mode| {
            Executor::new(Target::Read(g), &params, 0)
                .with_match_mode(mode)
                .run(&query, Vec::new())
                .expect(q)
                .rows
        };
        let reference = run(MatchMode::Reference);
        assert!(!reference.is_empty(), "vacuous panel query: {q}");
        assert_eq!(
            run(MatchMode::Batched),
            reference,
            "batched diverged from reference for {q}"
        );
    }
}
