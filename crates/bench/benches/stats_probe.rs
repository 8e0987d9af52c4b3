//! Planning cost under cardinality statistics (planner v3).
//!
//! Before v3, costing an access path materialized the index candidate
//! vector (`nodes_with_prop(...).len()`), so *planning* an indexed-eq
//! trigger condition was O(candidates) — pathological when the predicate
//! value is hot (many matches) even if execution never touches them. With
//! count-only probes, planning is O(log n) regardless of selectivity:
//! `planning_eq/hot` (the predicate value matches *every* node) must sit
//! in the same ballpark as `planning_eq/cold` (it matches one node), not
//! ~n× above it. The probe counters assert the invariant outright: the
//! planning rounds of a run perform counting probes only.
//!
//! `histogram_estimate` compares the histogram's range selectivity
//! estimate against the exact count on a Zipf-skewed distribution — the
//! case uniform-assumption estimators get wrong.
//!
//! Quick mode for CI: `cargo bench --bench stats_probe -- --test`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_bench::workloads::session_with_zipf_items;
use pg_graph::Value;
use pg_triggers::{IndexDef, Session};
use std::ops::Bound;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

/// A session where every one of `n` Item nodes carries `k = 7` (the "hot"
/// case: an eq probe hits all of them) plus one `Tiny` node wired to one
/// Item — the pattern anchor the planner should prefer.
fn hot_session(n: usize, hot: bool) -> Session {
    let mut s = Session::new();
    {
        let g = s.graph_mut();
        let mut anchor = None;
        for i in 0..n {
            let k = if hot { 7 } else { i as i64 };
            let id = g
                .create_node(
                    ["Item"],
                    [("k".to_string(), Value::Int(k))].into_iter().collect(),
                )
                .unwrap();
            if i == 7 {
                anchor = Some(id); // k == 7 in both the hot and cold layout
            }
        }
        let t = g
            .create_node(["Tiny"], pg_graph::PropertyMap::new())
            .unwrap();
        g.create_rel(anchor.unwrap(), t, "R", pg_graph::PropertyMap::new())
            .unwrap();
    }
    s.create_index(&IndexDef::node("Item", &["k"])).unwrap();
    s
}

fn bench_stats_probe(c: &mut Criterion) {
    let (n, samples) = if quick_mode() {
        (5_000, 10)
    } else {
        (100_000, 30)
    };

    // Planning an indexed-eq condition: the Tiny anchor wins either way;
    // v2 materialized the (possibly huge) eq candidate vector just to
    // learn its size, v3 count-probes it.
    let q = "MATCH (i:Item {k: 7})-[:R]->(t:Tiny) RETURN count(*) AS c";
    let mut group = c.benchmark_group("planning_eq");
    group.sample_size(samples);
    for (tag, hot) in [("hot", true), ("cold", false)] {
        let mut s = hot_session(n, hot);
        let out = s.run(q).unwrap();
        assert_eq!(
            out.rows[0][0],
            Value::Int(1),
            "{tag}: exactly the wired pair matches"
        );
        group.bench_with_input(BenchmarkId::new(tag, n), &n, |b, _| {
            b.iter(|| s.run(q).unwrap())
        });
    }
    group.finish();

    // The invariant itself, outside the timed loops: a run over indexed
    // predicates plans through counting probes; the only materializing
    // lookups are the chosen execution access paths (≤ a handful, never
    // O(candidates) planning rounds).
    let mut s = hot_session(n, true);
    s.run(q).unwrap(); // warm
    s.graph().reset_index_probes();
    s.run(q).unwrap();
    let probes = s.graph().index_probes();
    assert!(
        probes.counting > 0,
        "planning must use count-only probes: {probes:?}"
    );
    assert!(
        probes.materializing <= 4,
        "execution materializes at most its chosen access paths: {probes:?}"
    );

    // Histogram selectivity on skewed data: estimate vs exact over the
    // hot head and the cold tail of a Zipf distribution.
    let mut zipf = session_with_zipf_items(n, 1000, 1.05, 42);
    zipf.create_index(&IndexDef::node("Item", &["k"])).unwrap();
    let g = zipf.graph();
    for (tag, lo, hi) in [("head", 0i64, 10i64), ("tail", 500, 1000)] {
        let est = g
            .count_nodes_in_prop_range(
                "Item",
                "k",
                Bound::Included(&Value::Int(lo)),
                Bound::Excluded(&Value::Int(hi)),
            )
            .expect("indexed range estimate");
        let exact = g
            .nodes_in_prop_range(
                "Item",
                "k",
                Bound::Included(&Value::Int(lo)),
                Bound::Excluded(&Value::Int(hi)),
            )
            .expect("indexed range scan")
            .len();
        // documented bound: 2·depth + drift allowance
        let (total, _) = g.node_prop_stats("Item", "k").unwrap();
        let bound = 2 * total.div_ceil(32) + 16.max(total / 8);
        assert!(
            est.abs_diff(exact) <= bound,
            "{tag}: estimate {est} vs exact {exact} (bound {bound})"
        );
        println!("histogram_estimate/{tag}: est {est} exact {exact}");
    }

    // And the probe itself is cheap: O(#buckets), independent of matches.
    let mut group = c.benchmark_group("histogram_estimate");
    group.sample_size(samples);
    group.bench_with_input(BenchmarkId::new("range_probe", n), &n, |b, _| {
        b.iter(|| {
            zipf.graph()
                .count_nodes_in_prop_range(
                    "Item",
                    "k",
                    Bound::Included(&Value::Int(0)),
                    Bound::Excluded(&Value::Int(10)),
                )
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stats_probe);
criterion_main!(benches);
