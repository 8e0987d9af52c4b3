//! Fixed per-statement overhead: work that depends on neither the data
//! nor the parameters must not be paid per statement (or per `MATCH`).
//!
//! The three `wire_point_read` texts of `BENCHMARK.json`, whose match
//! work is near zero, run on an in-process session against a
//! **relative** bar (no absolute time, so it holds on any machine):
//! *text-invariant work* — running a text the session has prepared
//! before (a statement-cache hit) is cheaper than preparing it again and
//! running it.
//!
//! Quick mode for CI: `cargo bench --bench stmt_overhead -- --test`.

use pg_cypher::{parse_query, Executor, Params, Prepared, Query, Target};
use pg_graph::{PropertyMap, Value};
use pg_triggers::Session;
use std::hint::black_box;
use std::time::Instant;

const POINT_LOOKUP: &str = "MATCH (p:Patient {ssn: $ssn}) RETURN p.severity AS severity";
const NEIGHBOUR: &str =
    "MATCH (p:Patient {ssn: $ssn})-[:TreatedAt]->(h:Hospital) RETURN h.name AS hospital";
const INDEXED_COUNT: &str = "MATCH (p:Patient {name: $name}) RETURN count(*) AS n";

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

/// The §6 wire scenario (indexes, seed graph, triggers) plus `patients`
/// bulk-loaded patients treated at Meyer.
fn fixture(patients: usize) -> Session {
    let mut s = Session::new();
    for stmt in pg_covid::wire::setup_statements() {
        s.execute(&stmt).expect("covid setup");
    }
    let meyer = match s.run("MATCH (h:Hospital {name: 'Meyer'}) RETURN h") {
        Ok(out) => match out.single() {
            Some(Value::Node(id)) => *id,
            other => panic!("Meyer is seeded, got {other:?}"),
        },
        Err(e) => panic!("seeded hospital: {e}"),
    };
    let g = s.graph_mut();
    for i in 0..patients {
        let props: PropertyMap = [
            ("ssn".to_string(), Value::str(format!("S{i:07}"))),
            ("name".to_string(), Value::str(format!("N{:06}", i / 5))),
            ("severity".to_string(), Value::Int((i % 10) as i64)),
        ]
        .into_iter()
        .collect();
        let p = g.create_node(["Patient"], props).expect("bulk load");
        g.create_rel(p, meyer, "TreatedAt", PropertyMap::new())
            .expect("bulk load");
    }
    g.create_index("Patient", "name");
    g.rebuild_stats();
    s
}

/// Best per-iteration time (µs) over `batches` batches of `iters` calls:
/// the machine at rest, which is what two configurations compare on.
fn best_us(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / 1e3 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn read(s: &Session, query: &Query, params: &Params) -> usize {
    Executor::new(Target::Read(s.graph()), params, 0)
        .run(query, Vec::new())
        .expect("read")
        .rows
        .len()
}

/// One bar: `measured` may be at most `bar` × `reference`.
struct Bars(Vec<String>);

impl Bars {
    fn check(&mut self, name: &str, what: &str, measured: f64, reference: f64, bar: f64) {
        let ratio = measured / reference;
        println!(
            "stmt_overhead/{name}/{what}: {measured:.2} us vs {reference:.2} us \
             = {ratio:.2}x (bar {bar}x)"
        );
        if ratio > bar {
            self.0
                .push(format!("{name}: {what} is {ratio:.2}x, bar {bar}x"));
        }
    }
}

fn main() {
    let (patients, batches, iters) = if quick_mode() {
        (500, 5, 400)
    } else {
        (5_000, 15, 4_000)
    };
    let mut s = fixture(patients);
    let key = patients / 2;
    let ssn: Params = [("ssn".to_string(), Value::str(format!("S{key:07}")))].into();
    let name: Params = [("name".to_string(), Value::str(format!("N{:06}", key / 5)))].into();
    let mut bars = Bars(Vec::new());

    for (label, text, params) in [
        ("point_lookup", POINT_LOOKUP, &ssn),
        ("neighbour", NEIGHBOUR, &ssn),
        ("indexed_count", INDEXED_COUNT, &name),
    ] {
        let query = parse_query(text).expect(text);
        assert_eq!(read(&s, &query, params), 1, "{text}");
        let hit_us = best_us(batches, iters, || {
            black_box(s.run_with_params(text, params).expect("cached read"));
        });
        let again_us = best_us(batches, iters, || {
            let stmt = Prepared::new(black_box(text)).expect("prepare");
            black_box(s.run_prepared(&stmt, Vec::new(), params).expect("read"));
        });
        bars.check(label, "cache_hit_vs_prepare_and_run", hit_us, again_us, 1.0);
    }

    assert!(
        bars.0.is_empty(),
        "fixed overhead is back:\n{}",
        bars.0.join("\n")
    );
}
