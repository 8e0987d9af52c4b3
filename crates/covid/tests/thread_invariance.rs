//! Thread-count invariance over the §6 COVID scenario.
//!
//! The morsel-driven parallel executor's contract is that the worker
//! ceiling is pure scheduling: the morselize-or-not decision, the morsel
//! boundaries, and every row (order included) are identical whether a
//! query runs on one thread or eight. This file checks that contract on
//! the paper's own workload, two ways:
//!
//! 1. the **whole reactive scenario** — triggers, relocations, alerts —
//!    replayed under `PG_THREADS` ∈ {1, 2, 8} must produce identical
//!    reports and identical panel rows (this is the env-var path real
//!    deployments use);
//! 2. a **forced-morselization panel** over the finished scenario graph:
//!    the estimated-rows threshold is dropped to 0 so every multi-seed
//!    `MATCH` group actually morselizes, and the rows must equal the
//!    reference (serial DFS) executor's rows in order at every ceiling.
//!
//! This file holds exactly one `PG_THREADS`-mutating test so the env
//! writes cannot race another test in the same process.

use pg_covid::{GeneratorConfig, Scenario, ScenarioConfig, ScenarioReport};
use pg_cypher::{
    parse_query, plan_parallelism, Executor, MatchMode, ParallelPlan, Params, Target,
    PARALLEL_ROW_THRESHOLD,
};
use pg_graph::Value;

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
/// projections, so a scheduling bug shows up as a row-order diff.
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

fn run_scenario() -> (ScenarioReport, Vec<Vec<Vec<Value>>>) {
    let mut sc = Scenario::new(cfg());
    let report = sc.run().expect("scenario");
    let rows = PANEL
        .iter()
        .map(|q| sc.session.run(q).expect("panel query").rows)
        .collect();
    (report, rows)
}

/// The worker degree the process-wide ceiling grants a group wide and
/// costly enough that nothing else clamps it (1 024 morsels, a cost
/// width of 1 024).
fn process_wide_degree() -> usize {
    let est_rows = 1024.0 * PARALLEL_ROW_THRESHOLD;
    match plan_parallelism(65_536, false, est_rows, true, None, PARALLEL_ROW_THRESHOLD) {
        ParallelPlan::Parallel { degree, .. } => degree,
        serial => panic!("a huge pinnable group must morselize, got {serial:?}"),
    }
}

#[test]
fn scenario_is_invariant_under_pg_threads() {
    let baseline = run_scenario();
    for threads in ["1", "2", "8"] {
        std::env::set_var("PG_THREADS", threads);
        // The variable is read when a decision needs the ceiling, not
        // remembered from the first statement of the process: the three
        // runs below really are three different ceilings.
        assert_eq!(
            process_wide_degree().to_string(),
            threads,
            "PG_THREADS={threads} is not the ceiling in force"
        );
        let run = run_scenario();
        assert_eq!(
            run, baseline,
            "scenario diverged under PG_THREADS={threads}"
        );
    }
    std::env::remove_var("PG_THREADS");
}

#[test]
fn forced_morselization_matches_reference_on_scenario_graph() {
    let mut sc = Scenario::new(cfg());
    sc.run().expect("scenario");
    let params = Params::new();
    let g = sc.session.graph();
    for q in PANEL {
        let query = parse_query(q).expect(q);
        let reference = Executor::new(Target::Read(g), &params, 0)
            .with_match_mode(MatchMode::Reference)
            .run(&query, Vec::new())
            .expect(q)
            .rows;
        assert!(!reference.is_empty(), "vacuous panel query: {q}");
        for threads in [1usize, 2, 8] {
            // explicit limit wins over PG_THREADS, so this test is
            // env-independent; threshold 0 forces every eligible group
            // through the morsel queue.
            let parallel = Executor::new(Target::Read(g), &params, 0)
                .with_match_mode(MatchMode::Batched)
                .with_thread_limit(threads)
                .with_parallel_threshold(0.0)
                .run(&query, Vec::new())
                .expect(q)
                .rows;
            assert_eq!(
                parallel, reference,
                "morselized ({threads} threads) diverged from reference for {q}"
            );
        }
    }
}
