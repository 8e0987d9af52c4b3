//! Index-backed vs. full-scan equality matching — the access path the
//! candidate planner chooses for trigger-condition hot loops.
//!
//! `indexed/*` runs against a session with `CREATE INDEX ON :Item(k)`;
//! `scan/*` runs the identical query without the index (label-extent scan
//! with a post-hoc property filter). At the default 100k nodes the indexed
//! path must be orders of magnitude faster (the acceptance bar is 10×).
//!
//! Quick mode for CI: `cargo bench --bench index_lookup -- --test` shrinks
//! the graph and sample counts so the bench doubles as a smoke test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_bench::workloads::session_with_items;
use pg_triggers::{IndexDef, Session};

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

fn checked_count(s: &mut Session, query: &str, expect: i64) {
    let n = s.run(query).unwrap().single().and_then(|v| v.as_i64());
    assert_eq!(n, Some(expect), "{query}");
}

fn bench_index_lookup(c: &mut Criterion) {
    let (n, samples) = if quick_mode() {
        (5_000, 5)
    } else {
        (100_000, 30)
    };
    let needle = (n - 1) as i64; // worst case for an ordered scan
    let inline = format!("MATCH (i:Item {{k: {needle}}}) RETURN count(*) AS n");
    let where_eq = format!("MATCH (i:Item) WHERE i.k = {needle} RETURN count(*) AS n");

    let mut indexed = session_with_items(n);
    indexed
        .create_index(&IndexDef::node("Item", &["k"]))
        .unwrap();
    let mut scan = session_with_items(n);

    // Both paths must agree before we time anything.
    checked_count(&mut indexed, &inline, 1);
    checked_count(&mut scan, &inline, 1);

    let mut group = c.benchmark_group("index_lookup");
    group.sample_size(samples);
    group.bench_with_input(BenchmarkId::new("indexed_inline_prop", n), &n, |b, _| {
        b.iter(|| indexed.run(&inline).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("indexed_where_eq", n), &n, |b, _| {
        b.iter(|| indexed.run(&where_eq).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("scan_inline_prop", n), &n, |b, _| {
        b.iter(|| scan.run(&inline).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("scan_where_eq", n), &n, |b, _| {
        b.iter(|| scan.run(&where_eq).unwrap())
    });
    group.finish();

    // Trigger-condition shape: an AFTER trigger whose condition is an
    // indexed equality match over the big extent.
    let mut group = c.benchmark_group("indexed_trigger_condition");
    group.sample_size(samples);
    for (tag, with_index) in [("indexed", true), ("scan", false)] {
        let mut s = session_with_items(n);
        if with_index {
            s.create_index(&IndexDef::node("Item", &["k"])).unwrap();
        }
        s.install(&format!(
            "CREATE TRIGGER probe AFTER CREATE ON 'Probe' FOR EACH NODE
             WHEN MATCH (i:Item {{k: {needle}}}) WHERE i.k = NEW.k
             BEGIN CREATE (:Hit) END"
        ))
        .unwrap();
        group.bench_with_input(BenchmarkId::new(tag, n), &n, |b, _| {
            b.iter(|| s.run(&format!("CREATE (:Probe {{k: {needle}}})")).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_index_lookup);
criterion_main!(benches);
