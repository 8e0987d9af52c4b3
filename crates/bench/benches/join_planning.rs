//! Join planning under Zipf skew: batched vs row-at-a-time execution,
//! and degree-statistics join-output estimates vs actual cardinalities.
//!
//! Emitted as `BENCH_join_planning.json`:
//!
//! 1. **Executor comparison** — a two-hop join pipeline
//!    (`MATCH (u:User) MATCH (u)-[:FOLLOWS]->(h:User)-[:WROTE]->(p)`)
//!    over a follower graph whose FOLLOWS targets are Zipf-distributed:
//!    most intermediate rows funnel into a few hub users, so the batched
//!    executor's per-source-node hop memoization pays off while the
//!    reference executor re-scans each hub's adjacency once per incoming
//!    row. Full mode asserts batched beats row-at-a-time.
//! 2. **Estimate accuracy** — `estimated match rows` from the physical
//!    plan (product of per-hop average fanouts from the degree
//!    statistics) against the true row count, for two second hops:
//!    a *uniform* one (every user wrote exactly the same number of
//!    posts), where the average-fanout model is exact, and a *skew-
//!    correlated* one (hub users also author Zipf-many posts), where
//!    independence is violated and the model underestimates. Full mode
//!    asserts the uniform error is ≈ 0 and the skewed estimate stays
//!    within a 10× documented bound.
//! 3. **EXPLAIN smoke** — the report for the join renders end-to-end and
//!    names the access path, fanouts and both row counts.
//!
//! Quick mode (`-- --test`): shrunk sizes, no acceptance assertions.

use pg_bench::zipf::follower_graph;
use pg_cypher::{explain_query, parse_query, Executor, MatchMode, Params, Target};
use pg_graph::Graph;
use serde_json::json;
use std::time::Instant;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

/// Run `q` under the given match mode, returning (rows, seconds).
fn timed_run(g: &Graph, q: &str, mode: MatchMode, iters: usize) -> (usize, f64) {
    let query = parse_query(q).unwrap();
    let params = Params::new();
    let mut rows = 0;
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        let out = Executor::new(Target::Read(g), &params, 0)
            .with_match_mode(mode)
            .run(&query, Vec::new())
            .unwrap();
        best = best.min(t.elapsed().as_secs_f64());
        rows = out.single().and_then(|v| v.as_i64()).expect("count query") as usize;
    }
    (rows, best)
}

/// Estimated match rows of `q`'s physical plan (product over planned
/// paths of their join-output estimates).
fn estimated_rows(g: &Graph, q: &str) -> f64 {
    let query = parse_query(q).unwrap();
    let params = Params::new();
    let ctx = pg_cypher::expr::EvalCtx::new(g, &params, 0);
    let (_, phys) = pg_cypher::lower_query(&ctx, &query).unwrap();
    phys.iter().map(|p| p.est_rows()).product()
}

fn main() {
    let quick = quick_mode();
    let (n, follows, w_uniform, wz_total, iters) = if quick {
        (60, 240, 2, 120, 2)
    } else {
        (1200, 9600, 4, 4800, 5)
    };
    let g = follower_graph(n, follows, w_uniform, wz_total);

    let q_uniform = "MATCH (u:User) MATCH (u)-[:FOLLOWS]->(h:User)-[:WROTE]->(p:Post) \
                     RETURN count(*) AS n";
    let q_skew = "MATCH (u:User) MATCH (u)-[:FOLLOWS]->(h:User)-[:WROTE_Z]->(p:Post) \
                  RETURN count(*) AS n";

    // 1. Batched vs row-at-a-time on the skew-correlated join.
    let (rows_b, secs_batched) = timed_run(&g, q_skew, MatchMode::Batched, iters);
    let (rows_r, secs_reference) = timed_run(&g, q_skew, MatchMode::Reference, iters);
    assert_eq!(rows_b, rows_r, "executors disagree");
    let speedup = secs_reference / secs_batched;

    // 2. Estimated vs actual join-output rows. The first clause
    //    (`MATCH (u:User)`) estimates the label extent; the second
    //    clause's plan sees `u` as bound (`BoundVar`, est 1) with its
    //    declared label feeding the fanout lookups, so the product over
    //    the two paths is label card × fanout(FOLLOWS) × fanout(WROTE*).
    let est_uniform = estimated_rows(&g, q_uniform);
    let (actual_uniform, _) = timed_run(&g, q_uniform, MatchMode::Batched, 1);
    let est_skew = estimated_rows(&g, q_skew);
    let actual_skew = rows_b;
    let rel_err = |est: f64, actual: usize| {
        if actual == 0 {
            0.0
        } else {
            (est - actual as f64).abs() / actual as f64
        }
    };
    let err_uniform = rel_err(est_uniform, actual_uniform);
    let err_skew = rel_err(est_skew, actual_skew);

    // 3. EXPLAIN smoke: the report renders and carries the plan shape.
    let explain = explain_query(&g, q_skew, &Params::new(), 0).unwrap();
    assert!(explain.contains("fanout="), "{explain}");
    assert!(explain.contains("estimated match rows:"), "{explain}");
    assert!(explain.contains("actual rows: 1"), "{explain}");

    let executor = json!({
        "query": q_skew,
        "output_rows": rows_b,
        "batched_s": secs_batched,
        "reference_s": secs_reference,
        "batched_speedup_x": speedup,
        "bar_speedup_min_x": 1.05,
    });
    let uniform = json!({
        "estimated": est_uniform,
        "actual": actual_uniform,
        "rel_error": err_uniform,
        "bar_rel_error_max": 0.01,
    });
    // Independence between hub in-degree and author out-degree is
    // violated by construction; the documented bound for the average-
    // fanout model under Zipf(1.0) correlation at this scale is one
    // order of magnitude.
    let skew_correlated = json!({
        "estimated": est_skew,
        "actual": actual_skew,
        "rel_error": err_skew,
        "bar_rel_error_max": 10.0,
    });
    let estimates = json!({
        "uniform": uniform,
        "skew_correlated": skew_correlated,
    });
    let report = json!({
        "bench": "join_planning",
        "mode": if quick { "quick" } else { "full" },
        "users": n,
        "follows_edges": follows,
        "executor": executor,
        "estimates": estimates,
    });
    pg_bench::write_report("join_planning", quick, &report);

    if !quick {
        assert!(
            speedup >= 1.05,
            "batched executor must beat row-at-a-time on the skewed join \
             (got {speedup:.3}x)"
        );
        assert!(
            err_uniform <= 0.01,
            "uniform-fanout estimate must be near-exact (err {err_uniform:.4})"
        );
        assert!(
            err_skew <= 10.0,
            "skew-correlated estimate outside the documented bound \
             (err {err_skew:.2})"
        );
    }
}
