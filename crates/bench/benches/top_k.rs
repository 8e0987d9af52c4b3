//! Index-served `ORDER BY … LIMIT` (top-k) vs the full-sort path it
//! replaces — the paper's §6.2.3 relocation shape
//! (`WITH ct, c, hc, pn ORDER BY ct.distance LIMIT 1`).
//!
//! `indexed/*` runs against a session whose order key is indexed, so the
//! executor fuses MATCH + `ORDER BY i.k LIMIT 1` into an O(log n + k)
//! ordered index walk; `sort/*` runs the identical query without the
//! index (full enumeration + bounded-heap selection). The acceptance bar
//! at 100k nodes is **≥100×**.
//!
//! A relationship-keyed group replays the exact §6.2.3 trigger shape over
//! `ConnectedTo.distance`.
//!
//! Quick mode for CI: `cargo bench --bench top_k -- --test` shrinks the
//! graph and sample counts so the bench doubles as a smoke test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_bench::workloads::session_with_items;
use pg_triggers::{IndexDef, Session};

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

fn checked_min(s: &mut Session, query: &str, expect: i64) {
    let out = s.run(query).unwrap();
    let got = out.rows.first().and_then(|r| r.first()).cloned();
    assert_eq!(got, Some(pg_graph::Value::Int(expect)), "{query}");
}

fn bench_top_k(c: &mut Criterion) {
    let (n, samples) = if quick_mode() {
        (5_000, 5)
    } else {
        (100_000, 30)
    };
    let q = "MATCH (i:Item) WITH i ORDER BY i.k LIMIT 1 RETURN i.k AS k";
    let q_desc = "MATCH (i:Item) WITH i ORDER BY i.k DESC LIMIT 1 RETURN i.k AS k";

    let mut indexed = session_with_items(n);
    indexed
        .create_index(&IndexDef::node("Item", &["k"]))
        .unwrap();
    let mut sort = session_with_items(n);

    // Both paths must agree before we time anything.
    checked_min(&mut indexed, q, 0);
    checked_min(&mut sort, q, 0);
    checked_min(&mut indexed, q_desc, (n - 1) as i64);
    checked_min(&mut sort, q_desc, (n - 1) as i64);

    let mut group = c.benchmark_group("top_k");
    group.sample_size(samples);
    group.bench_with_input(BenchmarkId::new("indexed_limit1", n), &n, |b, _| {
        b.iter(|| indexed.run(q).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("indexed_limit1_desc", n), &n, |b, _| {
        b.iter(|| indexed.run(q_desc).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("sort_limit1", n), &n, |b, _| {
        b.iter(|| sort.run(q).unwrap())
    });
    group.finish();

    // The §6.2.3 relocation shape: one overloaded hospital, n/2 candidate
    // transfer targets, pick the nearest by relationship property.
    let mut group = c.benchmark_group("top_k_rel_6_2_3");
    group.sample_size(samples);
    let m = n / 2;
    for (tag, with_index) in [("indexed", true), ("sort", false)] {
        let mut s = Session::new();
        {
            let g = s.graph_mut();
            let h = g
                .create_node(
                    ["Hospital"],
                    [("name".to_string(), pg_graph::Value::str("Sacco"))]
                        .into_iter()
                        .collect(),
                )
                .unwrap();
            for i in 0..m {
                let other = g
                    .create_node(
                        ["Hospital"],
                        [("name".to_string(), pg_graph::Value::str(format!("H{i}")))]
                            .into_iter()
                            .collect(),
                    )
                    .unwrap();
                g.create_rel(
                    h,
                    other,
                    "ConnectedTo",
                    [(
                        "distance".to_string(),
                        pg_graph::Value::Int(((i * 7919) % m) as i64 + 1),
                    )]
                    .into_iter()
                    .collect(),
                )
                .unwrap();
            }
        }
        if with_index {
            s.graph_mut()
                .define_index(&IndexDef::rel("ConnectedTo", &["distance"]));
        }
        let q = "MATCH (h:Hospital {name: 'Sacco'})-[ct:ConnectedTo]-(hc:Hospital) \
                 WITH ct, hc ORDER BY ct.distance LIMIT 1 \
                 RETURN ct.distance AS d";
        checked_min(&mut s, q, 1);
        group.bench_with_input(BenchmarkId::new(tag, m), &m, |b, _| {
            b.iter(|| s.run(q).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_top_k);
criterion_main!(benches);
