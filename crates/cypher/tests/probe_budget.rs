//! Index-probe budgets per executed statement.
//!
//! A `MATCH` decides each pattern position's access path **once**, in the
//! join-order planner, and the matcher materialises that decision — so
//! the number of probes a statement performs is a small constant of its
//! shape, not a multiple of how many layers re-derive the choice. The
//! budgets below are literals: `counting` covers count-only index probes,
//! index statistics and degree-statistics lookups; `materializing` covers
//! id-vector lookups. The numbers at the parent commit (`0b5a3f2`, where
//! the decision was re-made by `plan_patterns` twice, `start_candidates`
//! and `choose_index_access`) are recorded next to each.

use pg_cypher::expr::EvalCtx;
use pg_cypher::{
    explain_query, lower_query, parse_query, Executor, MatchMode, Params, QueryOutput, Target,
};
use pg_graph::{Graph, IndexDef, IndexProbes, PropertyMap, Value};

const PATIENTS: i64 = 200;

fn props(entries: &[(&str, Value)]) -> PropertyMap {
    entries
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// 200 `Patient` (single-key indexes on `ssn` and `name`), 10 `Hospital`,
/// 200 `TreatedAt` (patient *i* → hospital *i mod 10*, `w = i`), and a
/// relationship index on `TreatedAt(w)`.
fn fixture() -> Graph {
    let mut g = Graph::new();
    let hospitals: Vec<_> = (0..10i64)
        .map(|i| {
            g.create_node(
                ["Hospital"],
                props(&[("name", Value::Str(format!("h{i}")))]),
            )
            .unwrap()
        })
        .collect();
    for i in 0..PATIENTS {
        let p = g
            .create_node(
                ["Patient"],
                props(&[
                    ("ssn", Value::Int(i)),
                    ("name", Value::Str(format!("p{i}"))),
                ]),
            )
            .unwrap();
        g.create_rel(
            p,
            hospitals[(i % 10) as usize],
            "TreatedAt",
            props(&[("w", Value::Int(i))]),
        )
        .unwrap();
    }
    g.create_index("Patient", "ssn");
    g.create_index("Patient", "name");
    g.define_index(&IndexDef::rel("TreatedAt", &["w"]));
    g
}

fn run(g: &Graph, mode: MatchMode, src: &str) -> (QueryOutput, IndexProbes) {
    let query = parse_query(src).unwrap();
    let params = Params::new();
    g.reset_index_probes();
    let out = Executor::new(Target::Read(g), &params, 0)
        .with_match_mode(mode)
        .run(&query, Vec::new())
        .unwrap();
    (out, g.index_probes())
}

/// Run `src` under both match modes and assert the same rows and exactly
/// `(counting, materializing)` probes under each.
fn assert_budget(g: &Graph, src: &str, rows: usize, counting: u64, materializing: u64) {
    for mode in [MatchMode::Batched, MatchMode::Reference] {
        let (out, probes) = run(g, mode, src);
        assert_eq!(out.rows.len(), rows, "{mode:?}: {src}");
        assert_eq!(
            (probes.counting, probes.materializing),
            (counting, materializing),
            "{mode:?}: {src}"
        );
    }
}

#[test]
fn single_node_equality() {
    // One count to choose `IndexEq(Patient.ssn)`, one lookup to fetch.
    // Parent: 1 + 1.
    let g = fixture();
    assert_budget(&g, "MATCH (p:Patient {ssn: 7}) RETURN p.name", 1, 1, 1);
}

#[test]
fn one_hop_from_indexed_anchor() {
    // One index count (anchor `p`) plus one degree-statistics lookup per
    // walk direction while costing the two anchors, then one lookup.
    // Parent: 8 + 1 — the batch planned, the singleton fallback planned
    // again, `start_candidates` re-estimated and `choose_index_access`
    // re-counted before materializing.
    let g = fixture();
    assert_budget(
        &g,
        "MATCH (p:Patient {ssn: 7})-[:TreatedAt]->(h:Hospital) RETURN h.name",
        1,
        3,
        1,
    );
}

#[test]
fn rel_index_seeded_join() {
    // The `TreatedAt(w)` count is taken once for the segment (it can seed
    // either endpoint) plus the two degree lookups, then one lookup for
    // the seed; the hop out of the seeded `p` asks the index once more to
    // choose between it and `p`'s adjacency list (a per-source-node
    // decision of the expansion, not of the plan). Parent: 11 + 1
    // (Batched) and 7 + 1 (Reference) — the matchers did not even agree
    // with each other.
    let g = fixture();
    assert_budget(
        &g,
        "MATCH (p:Patient)-[t:TreatedAt]->(h:Hospital) WHERE t.w = 5 RETURN h.name",
        1,
        4,
        1,
    );
}

/// `(counting, materializing)` of `MATCH (p:Patient) WHERE p.ssn < n`
/// followed by `second`, which re-uses the bound `p` and returns `n` rows,
/// under each matcher.
fn bound_seed_probes(g: &Graph, n: i64, second: &str) -> [(u64, u64); 2] {
    seed_probes(g, n, second, n)
}

/// [`bound_seed_probes`] for a `second` that returns `rows` rows.
fn seed_probes(g: &Graph, n: i64, second: &str, rows: i64) -> [(u64, u64); 2] {
    let src = format!("MATCH (p:Patient) WHERE p.ssn < {n} {second} RETURN count(h) AS c");
    [MatchMode::Batched, MatchMode::Reference].map(|mode| {
        let (out, probes) = run(g, mode, &src);
        assert_eq!(out.rows, vec![vec![Value::Int(rows)]], "{mode:?}: {src}");
        (probes.counting, probes.materializing)
    })
}

#[test]
fn bound_seeds_plan_once_per_chunk_batched_once_per_seed_under_reference() {
    // The first MATCH costs one range count and one lookup whatever N is;
    // the second materializes nothing (its anchor is the bound `p`). Under
    // Batched it is planned once for the chunk of seed rows, since they
    // bind the same names and planning reads none of their values; under
    // Reference it is planned once per seed row.
    let g = fixture();

    // `(p)-[:TreatedAt]->(h)`: no position carries a stored label, so
    // planning asks no statistic at all — counting is flat in N.
    let unlabeled = "MATCH (p)-[:TreatedAt]->(h)";
    assert_eq!(bound_seed_probes(&g, 10, unlabeled), [(1, 1), (1, 1)]);
    assert_eq!(bound_seed_probes(&g, 100, unlabeled), [(1, 1), (1, 1)]);

    // `(p)-[:TreatedAt]->(h:Hospital)`: costing the `h` anchor needs the
    // Hospital-side degree statistic — one lookup per plan, so counting is
    // 1 + 1 batched and 1 + N under Reference.
    let labeled = "MATCH (p)-[:TreatedAt]->(h:Hospital)";
    assert_eq!(bound_seed_probes(&g, 10, labeled), [(2, 1), (11, 1)]);
    assert_eq!(bound_seed_probes(&g, 100, labeled), [(2, 1), (101, 1)]);

    // An inline property that reads the seed's value, which differs per
    // row: each seed row is a run of its own under both matchers, 1 + N.
    let reads_seed = "MATCH (p {name: p.name})-[:TreatedAt]->(h:Hospital)";
    assert_eq!(bound_seed_probes(&g, 10, reads_seed), [(11, 1), (11, 1)]);
    assert_eq!(bound_seed_probes(&g, 100, reads_seed), [(101, 1), (101, 1)]);

    // Every seed row binds `hn` to the same value, and the inline property
    // reads it: the seeds agree on everything planning reads, so under
    // Batched they are one run with one plan, 1 + 1, flat in N; under
    // Reference 1 + N. Patients `3`, `13`, … are treated at `h3`: N / 10
    // rows.
    let equal = "WITH p, 'h3' AS hn MATCH (p)-[:TreatedAt]->(h:Hospital {name: hn})";
    assert_eq!(seed_probes(&g, 10, equal, 1), [(2, 1), (11, 1)]);
    assert_eq!(seed_probes(&g, 100, equal, 10), [(2, 1), (101, 1)]);
}

#[test]
fn explain_materializes_only_by_executing() {
    // Lowering a query to its plan is count-only (planner v3 invariant);
    // `EXPLAIN` of a read therefore materializes exactly what its single
    // execution materializes.
    let g = fixture();
    let src = "MATCH (p:Patient {ssn: 7})-[:TreatedAt]->(h:Hospital) RETURN h.name";
    let params = Params::new();
    let query = parse_query(src).unwrap();
    g.reset_index_probes();
    lower_query(&EvalCtx::new(&g, &params, 0), &query).unwrap();
    let lowering = g.index_probes();
    assert_eq!(lowering.materializing, 0, "planning must stay count-only");
    assert!(lowering.counting > 0);

    let (_, executed) = run(&g, MatchMode::Batched, src);
    g.reset_index_probes();
    let report = explain_query(&g, src, &params, 0).unwrap();
    assert!(report.contains("actual rows: 1"), "{report}");
    assert_eq!(g.index_probes().materializing, executed.materializing);
}
