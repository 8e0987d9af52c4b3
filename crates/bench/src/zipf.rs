//! Shared Zipf-skewed follower-graph fixture.
//!
//! Used by the `join_planning` bench (batched-vs-reference executor and
//! estimate accuracy) and the benchmark's `engine_analytic_join`
//! workload: FOLLOWS targets funnel into a few hub users, and hub users
//! also author Zipf-many `WROTE_Z` posts (skew-correlated second hop).

use pg_graph::{Graph, NodeId, PropertyMap, Value};

/// Integer Zipf(1.0) allocation: distribute `total` units over `n` ranks
/// proportionally to `1/(rank+1)`, deterministically (no sampling noise).
pub fn zipf_counts(n: usize, total: usize) -> Vec<usize> {
    let h: f64 = (0..n).map(|r| 1.0 / (r + 1) as f64).sum();
    let mut counts: Vec<usize> = (0..n)
        .map(|r| ((total as f64 / (r + 1) as f64) / h).floor() as usize)
        .collect();
    let mut assigned: usize = counts.iter().sum();
    let mut r = 0;
    while assigned < total {
        counts[r % n] += 1;
        assigned += 1;
        r += 1;
    }
    counts
}

/// `n` User nodes; FOLLOWS edges with Zipf-distributed targets (user 0
/// is the biggest hub); per user `w_uniform` WROTE posts; Zipf-many
/// WROTE_Z posts with author rank aligned to hub rank (correlated skew).
pub fn follower_graph(n: usize, follows: usize, w_uniform: usize, wz_total: usize) -> Graph {
    let mut g = Graph::new();
    let users: Vec<NodeId> = (0..n)
        .map(|i| {
            g.create_node(
                ["User"],
                [("id".to_string(), Value::Int(i as i64))]
                    .into_iter()
                    .collect(),
            )
            .unwrap()
        })
        .collect();
    for (rank, &count) in zipf_counts(n, follows).iter().enumerate() {
        // `count` followers follow the rank-`rank` user.
        for k in 0..count {
            let src = users[(rank + 1 + k * 7) % n];
            if src != users[rank] {
                g.create_rel(src, users[rank], "FOLLOWS", PropertyMap::new())
                    .unwrap();
            }
        }
    }
    for &u in &users {
        for _ in 0..w_uniform {
            let p = g.create_node(["Post"], PropertyMap::new()).unwrap();
            g.create_rel(u, p, "WROTE", PropertyMap::new()).unwrap();
        }
    }
    for (rank, &count) in zipf_counts(n, wz_total).iter().enumerate() {
        for _ in 0..count {
            let p = g.create_node(["Post"], PropertyMap::new()).unwrap();
            g.create_rel(users[rank], p, "WROTE_Z", PropertyMap::new())
                .unwrap();
        }
    }
    g
}
