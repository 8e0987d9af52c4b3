//! Ordered range and prefix scans vs. full scans — the access paths
//! planner v2 adds for the paper's §6 range-shaped trigger conditions
//! (`occupancy >= 0.95`, `count >= threshold`, name-prefix lookups).
//!
//! `indexed/*` runs against a session with `CREATE INDEX ON :Item(k)` /
//! `:Item(name)`; `scan/*` runs the identical queries without indexes
//! (label-extent scan with a post-hoc WHERE filter). At the default 100k
//! nodes a selective range must be orders of magnitude faster (the
//! acceptance bar is 100×).
//!
//! Quick mode for CI: `cargo bench --bench range_scan -- --test` shrinks
//! the graph and sample counts so the bench doubles as a smoke test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_bench::workloads::session_with_named_items;
use pg_triggers::{IndexDef, Session};

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

fn checked_count(s: &mut Session, query: &str, expect: i64) {
    let n = s.run(query).unwrap().single().and_then(|v| v.as_i64());
    assert_eq!(n, Some(expect), "{query}");
}

fn bench_range_scan(c: &mut Criterion) {
    let (n, samples) = if quick_mode() {
        (5_000, 5)
    } else {
        (100_000, 30)
    };
    // 100 matches at the top of the ordered key space (worst case for an
    // early-exit scan), 10 matches for the prefix.
    let lo = (n - 100) as i64;
    let range_q = format!("MATCH (i:Item) WHERE i.k >= {lo} AND i.k < {n} RETURN count(*) AS c");
    let prefix = format!("item{:05}", (n - 10) / 10);
    let prefix_q =
        format!("MATCH (i:Item) WHERE i.name STARTS WITH '{prefix}' RETURN count(*) AS c");

    let mut indexed = session_with_named_items(n);
    indexed
        .create_index(&IndexDef::node("Item", &["k"]))
        .unwrap();
    indexed
        .create_index(&IndexDef::node("Item", &["name"]))
        .unwrap();
    let mut scan = session_with_named_items(n);

    // Both paths must agree before we time anything.
    checked_count(&mut indexed, &range_q, 100);
    checked_count(&mut scan, &range_q, 100);
    checked_count(&mut indexed, &prefix_q, 10);
    checked_count(&mut scan, &prefix_q, 10);

    let mut group = c.benchmark_group("range_scan");
    group.sample_size(samples);
    group.bench_with_input(BenchmarkId::new("indexed_range", n), &n, |b, _| {
        b.iter(|| indexed.run(&range_q).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("indexed_prefix", n), &n, |b, _| {
        b.iter(|| indexed.run(&prefix_q).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("scan_range", n), &n, |b, _| {
        b.iter(|| scan.run(&range_q).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("scan_prefix", n), &n, |b, _| {
        b.iter(|| scan.run(&prefix_q).unwrap())
    });
    group.finish();

    // Trigger-condition shape (§6): an AFTER trigger whose condition is a
    // range match over the big extent, activated by a hot write.
    let mut group = c.benchmark_group("range_trigger_condition");
    group.sample_size(samples);
    for (tag, with_index) in [("indexed", true), ("scan", false)] {
        let mut s = session_with_named_items(n);
        if with_index {
            s.create_index(&IndexDef::node("Item", &["k"])).unwrap();
        }
        s.install(&format!(
            "CREATE TRIGGER probe AFTER CREATE ON 'Probe' FOR EACH NODE
             WHEN MATCH (i:Item) WHERE i.k >= {lo} AND i.k < {n} AND i.k = NEW.k
             BEGIN CREATE (:Hit) END"
        ))
        .unwrap();
        group.bench_with_input(BenchmarkId::new(tag, n), &n, |b, _| {
            b.iter(|| s.run(&format!("CREATE (:Probe {{k: {lo}}})")).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_range_scan);
criterion_main!(benches);
