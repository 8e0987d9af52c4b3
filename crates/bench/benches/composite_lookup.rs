//! Composite (multi-key) index vs. the best single-key plan vs. full scan
//! on a conjunctive predicate — the §6 `{status} AND severity` shape.
//!
//! 100k `Item` nodes carry independent `(status, severity)` pairs
//! (20 statuses × 100 severities), so the conjunction matches 50 nodes
//! while the best single key (severity) still matches 1 000: the
//! composite path must be ≥ 10× faster than the best single-key plan
//! (the acceptance bar), and orders of magnitude over the scan.
//!
//! * `composite/*` — `CREATE INDEX ON :Item(status, severity)`
//! * `single_key/*` — both single-key indexes, planner intersects/filters
//! * `scan/*` — no indexes at all
//!
//! Quick mode for CI: `cargo bench --bench composite_lookup -- --test`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_bench::workloads::session_with_pairs;
use pg_triggers::{IndexDef, Session};

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

fn checked_count(s: &mut Session, query: &str, expect: i64) {
    let n = s.run(query).unwrap().single().and_then(|v| v.as_i64());
    assert_eq!(n, Some(expect), "{query}");
}

fn bench_composite_lookup(c: &mut Criterion) {
    let (n, statuses, severities, samples) = if quick_mode() {
        (5_000, 10, 50, 5)
    } else {
        (100_000, 20, 100, 30)
    };
    let status = format!("s{}", statuses - 1);
    let severity = (severities - 1) as i64;
    let eq_pair = format!(
        "MATCH (i:Item) WHERE i.status = '{status}' AND i.severity = {severity} \
         RETURN count(*) AS n"
    );
    let eq_range = format!(
        "MATCH (i:Item {{status: '{status}'}}) WHERE i.severity >= {} RETURN count(*) AS n",
        severity - 4
    );
    let expect_pair = (n / (statuses * severities)) as i64;
    let expect_range = 5 * expect_pair;

    let cols = ["status".to_string(), "severity".to_string()];
    let mut composite = session_with_pairs(n, statuses, severities);
    composite
        .create_index(&IndexDef::node("Item", &cols))
        .unwrap();
    let mut single = session_with_pairs(n, statuses, severities);
    single
        .create_index(&IndexDef::node("Item", &["status"]))
        .unwrap();
    single
        .create_index(&IndexDef::node("Item", &["severity"]))
        .unwrap();
    let mut scan = session_with_pairs(n, statuses, severities);

    // All three plans must agree before we time anything.
    for s in [&mut composite, &mut single, &mut scan] {
        checked_count(s, &eq_pair, expect_pair);
        checked_count(s, &eq_range, expect_range);
    }

    let mut group = c.benchmark_group("composite_lookup");
    group.sample_size(samples);
    for (tag, session) in [
        ("composite", &mut composite),
        ("single_key", &mut single),
        ("scan", &mut scan),
    ] {
        group.bench_with_input(BenchmarkId::new(format!("{tag}_eq_pair"), n), &n, |b, _| {
            b.iter(|| session.run(&eq_pair).unwrap())
        });
    }
    for (tag, session) in [
        ("composite", &mut composite),
        ("single_key", &mut single),
        ("scan", &mut scan),
    ] {
        group.bench_with_input(
            BenchmarkId::new(format!("{tag}_eq_range"), n),
            &n,
            |b, _| b.iter(|| session.run(&eq_range).unwrap()),
        );
    }
    group.finish();

    // Pinned composite top-k: `{status} … ORDER BY severity LIMIT 1`
    // against the heap path of the single-key sessions.
    let topk = format!(
        "MATCH (i:Item {{status: '{status}'}}) \
         WITH i ORDER BY i.severity LIMIT 1 RETURN i.severity AS s"
    );
    let mut group = c.benchmark_group("composite_pinned_topk");
    group.sample_size(samples);
    for (tag, session) in [("composite", &mut composite), ("single_key", &mut single)] {
        group.bench_with_input(BenchmarkId::new(tag, n), &n, |b, _| {
            b.iter(|| session.run(&topk).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_composite_lookup);
criterion_main!(benches);
