//! `EXPLAIN` golden-snapshot tests over a fixed catalog.
//!
//! The graph below is deterministic (fixed node/edge counts, fixed
//! indexes), so the rendered physical plans — access paths, degree-
//! statistics fanouts, join-output estimates, actual row counts — are
//! stable strings. Any planner change that shifts an access-path choice
//! or an estimate shows up here as a readable diff.

use pg_cypher::{explain_query, Params};
use pg_graph::{Graph, GraphView, IndexDef, PropertyMap, Value};

fn props(entries: &[(&str, Value)]) -> PropertyMap {
    entries
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// 8 Person (indexed on `age`; composite on `[team, score]`), 4 City,
/// 16 LIVES_IN edges Person→City (each person twice).
fn fixture() -> Graph {
    let mut g = Graph::new();
    let mut people = Vec::new();
    let mut cities = Vec::new();
    for i in 0..8i64 {
        people.push(
            g.create_node(
                ["Person"],
                props(&[
                    ("age", Value::Int(20 + i)),
                    (
                        "team",
                        Value::Str(if i < 4 { "red" } else { "blue" }.into()),
                    ),
                    ("score", Value::Int(100 - i)),
                ]),
            )
            .unwrap(),
        );
    }
    for i in 0..4i64 {
        cities.push(
            g.create_node(["City"], props(&[("pop", Value::Int(1000 * (i + 1)))]))
                .unwrap(),
        );
    }
    for (i, &p) in people.iter().enumerate() {
        g.create_rel(p, cities[i % 4], "LIVES_IN", PropertyMap::new())
            .unwrap();
        g.create_rel(p, cities[(i + 1) % 4], "LIVES_IN", PropertyMap::new())
            .unwrap();
    }
    g.create_index("Person", "age");
    g.create_composite_index("Person", &["team".into(), "score".into()]);
    g
}

fn explain(src: &str) -> String {
    let g = fixture();
    explain_query(&g, src, &Params::new(), 0).unwrap_or_else(|e| panic!("{src}: {e}"))
}

#[test]
fn index_eq_seed() {
    assert_eq!(
        explain("MATCH (p:Person) WHERE p.age = 23 RETURN p"),
        "Plan\n\
         \x20 Seed (p) access=IndexEq(Person.age) est=1 rows\n\
         \x20 Filter (p.age = 23)\n\
         \x20 Project [p]\n\
         estimated match rows: 1\n\
         actual rows: 1\n"
    );
}

#[test]
fn expand_uses_degree_fanout() {
    // The cost model re-roots at City (4 nodes < 8 Persons) and expands
    // the reversed edge: fanout 16 edges / 4 cities = 4.00.
    assert_eq!(
        explain("MATCH (p:Person)-[:LIVES_IN]->(c:City) RETURN p, c"),
        "Plan\n\
         \x20 Seed (c) access=LabelScan(City) est=4 rows\n\
         \x20 Expand <-[:LIVES_IN]-(p:Person) fanout=4.00 est=16 rows\n\
         \x20 Project [p, c]\n\
         estimated match rows: 16\n\
         actual rows: 16\n"
    );
}

#[test]
fn fused_topk_plan() {
    assert_eq!(
        explain(
            "MATCH (p:Person {team: 'red'}) WITH p ORDER BY p.score LIMIT 3 \
             RETURN p.score AS s"
        ),
        "Plan\n\
         \x20 Seed (p) access=CompositeProbe(Person[team,score]) est=4 rows\n\
         \x20 Project [p]\n\
         \x20 TopK p.score asc keep=3\n\
         \x20 Project [s]\n\
         estimated match rows: 4\n\
         actual rows: 3\n"
    );
}

/// `TopK` is rendered from the executor's own fusion decision: the same
/// `ORDER BY … LIMIT 1` shape fuses over the indexed `Person.age` and
/// lowers unfused (`Sort`, `Page`) over the unindexed `City.pop` — where
/// execution does no ordered probe and heap-sorts.
#[test]
fn topk_renders_only_where_a_walk_runs() {
    assert_eq!(
        explain("MATCH (p:Person) RETURN p ORDER BY p.age LIMIT 1"),
        "Plan\n\
         \x20 Seed (p) access=LabelScan(Person) est=8 rows\n\
         \x20 Project [p]\n\
         \x20 TopK p.age asc keep=1\n\
         estimated match rows: 8\n\
         actual rows: 1\n"
    );
    assert_eq!(
        explain("MATCH (c:City) RETURN c ORDER BY c.pop LIMIT 1"),
        "Plan\n\
         \x20 Seed (c) access=LabelScan(City) est=4 rows\n\
         \x20 Project [c]\n\
         \x20 Sort keys=1 asc\n\
         \x20 Page (SKIP/LIMIT)\n\
         estimated match rows: 4\n\
         actual rows: 1\n"
    );
    let probes = |src: &str| {
        let g = fixture();
        let query = pg_cypher::parse_query(src).unwrap();
        pg_cypher::run_read_only(&g, &query, Vec::new(), &Params::new(), 0).unwrap();
        g.index_probes().ordered
    };
    assert_eq!(
        probes("MATCH (p:Person) RETURN p ORDER BY p.age LIMIT 1"),
        1
    );
    assert_eq!(probes("MATCH (c:City) RETURN c ORDER BY c.pop LIMIT 1"), 0);
}

#[test]
fn updating_query_not_executed() {
    assert_eq!(
        explain("CREATE (t:Thing {k: 1})"),
        "Plan\n\
         \x20 Update <Create>\n\
         actual rows: not executed (updating query)\n"
    );
}

/// A second `MATCH` re-using a bound variable seeds from it, and its hop
/// borrows the fanout of the label the first `MATCH` declared (`c:City`).
#[test]
fn second_match_seeds_from_the_bound_variable() {
    assert_eq!(
        explain(
            "MATCH (p:Person)-[:LIVES_IN]->(c:City) \
             MATCH (c)<-[:LIVES_IN]-(q:Person) RETURN count(q) AS n"
        ),
        "Plan\n\
         \x20 Seed (c) access=LabelScan(City) est=4 rows\n\
         \x20 Expand <-[:LIVES_IN]-(p:Person) fanout=4.00 est=16 rows\n\
         \x20 Seed (c) access=BoundVar(c) est=1 rows\n\
         \x20 Expand <-[:LIVES_IN]-(q:Person) fanout=4.00 est=4 rows\n\
         \x20 Aggregate [n] folds (q)\n\
         estimated match rows: 64\n\
         actual rows: 1\n"
    );
}

#[test]
fn aggregate_and_sort() {
    assert_eq!(
        explain(
            "MATCH (p:Person)-[:LIVES_IN]->(c:City) \
             RETURN c, count(p) AS n ORDER BY n DESC"
        ),
        "Plan\n\
         \x20 Seed (c) access=LabelScan(City) est=4 rows\n\
         \x20 Expand <-[:LIVES_IN]-(p:Person) fanout=4.00 est=16 rows\n\
         \x20 Aggregate [c, n] folds (p)\n\
         \x20 Sort keys=1 desc\n\
         estimated match rows: 16\n\
         actual rows: 4\n"
    );
}

/// A `WITH … WHERE` filters the projected rows: the plan prints it after
/// the projection that produces them.
#[test]
fn with_where_prints_its_filter() {
    assert_eq!(
        explain("MATCH (p:Person) WITH p WHERE p.age > 22 RETURN p"),
        "Plan\n\
         \x20 Seed (p) access=LabelScan(Person) est=8 rows\n\
         \x20 Project [p]\n\
         \x20 Filter (p.age > 22)\n\
         \x20 Project [p]\n\
         estimated match rows: 8\n\
         actual rows: 5\n"
    );
}

#[test]
fn having_style_filter_follows_the_aggregate() {
    assert_eq!(
        explain(
            "MATCH (p:Person) WITH p.team AS t, count(*) AS c WHERE c > 1 \
             RETURN t ORDER BY t"
        ),
        "Plan\n\
         \x20 Seed (p) access=LabelScan(Person) est=8 rows\n\
         \x20 Aggregate [t, c]\n\
         \x20 Filter (c > 1)\n\
         \x20 Project [t]\n\
         \x20 Sort keys=1 asc\n\
         estimated match rows: 8\n\
         actual rows: 2\n"
    );
}

#[test]
fn star_projection_keeps_its_star() {
    assert_eq!(
        explain("MATCH (p:Person) RETURN *, p.age AS a"),
        "Plan\n\
         \x20 Seed (p) access=LabelScan(Person) est=8 rows\n\
         \x20 Project [*, a]\n\
         estimated match rows: 8\n\
         actual rows: 8\n"
    );
}

#[test]
fn distinct_aggregate_says_distinct() {
    assert_eq!(
        explain("MATCH (p:Person) RETURN DISTINCT count(DISTINCT p.team) AS t"),
        "Plan\n\
         \x20 Seed (p) access=LabelScan(Person) est=8 rows\n\
         \x20 Aggregate DISTINCT [t]\n\
         estimated match rows: 8\n\
         actual rows: 1\n"
    );
}

/// 200 Patient, 10 Hospital, 200 TreatedAt (patient *i* → hospital
/// *i mod 10*, `w = i`) with a relationship index on `TreatedAt(w)`: the
/// pushed `t.w = 5` makes the relationship the cheapest way into the
/// path, and the `Seed` line must say so — its estimate is the probe's
/// count, not the Patient label's cardinality.
#[test]
fn relationship_index_seeds_the_anchor() {
    let mut g = Graph::new();
    let hospitals: Vec<_> = (0..10)
        .map(|_| g.create_node(["Hospital"], PropertyMap::new()).unwrap())
        .collect();
    for i in 0..200i64 {
        let p = g.create_node(["Patient"], PropertyMap::new()).unwrap();
        let w = props(&[("w", Value::Int(i))]);
        g.create_rel(p, hospitals[(i % 10) as usize], "TreatedAt", w)
            .unwrap();
    }
    g.define_index(&IndexDef::rel("TreatedAt", &["w"]));
    let explain = |src: &str| explain_query(&g, src, &Params::new(), 0).expect("explains");
    assert_eq!(
        explain("MATCH (p:Patient)-[t:TreatedAt]->(h:Hospital) WHERE t.w = 5 RETURN h"),
        "Plan\n\
         \x20 Seed (p) access=RelIndexEq(TreatedAt.w) est=1 rows\n\
         \x20 Expand -[:TreatedAt]->(h:Hospital) fanout=1.00 est=1 rows\n\
         \x20 Filter (t.w = 5)\n\
         \x20 Project [h]\n\
         estimated match rows: 1\n\
         actual rows: 1\n"
    );
    // Without a usable predicate the relationship extent (200) is no
    // smaller than either endpoint's label scan and the plan stays put.
    let unseeded = explain("MATCH (p:Patient)-[t:TreatedAt]->(h:Hospital) RETURN h");
    assert!(
        unseeded.contains("  Seed (h) access=LabelScan(Hospital) est=10 rows\n"),
        "{unseeded}"
    );
}

/// A type extent smaller than both endpoint extents seeds the anchor as
/// a `RelTypeScan`.
#[test]
fn small_type_extent_seeds_the_anchor() {
    let mut g = fixture();
    let people = g.nodes_with_label("Person");
    g.create_rel(people[0], people[1], "KNOWS", PropertyMap::new())
        .unwrap();
    let out = explain_query(
        &g,
        "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a",
        &Params::new(),
        0,
    )
    .unwrap();
    assert!(
        out.starts_with("Plan\n  Seed (a) access=RelTypeScan(KNOWS) est=1 rows\n"),
        "{out}"
    );
}

/// The shape of `IcuPatientMove`'s statement (§6.2.3): an `OPTIONAL MATCH`
/// from a bound node straight into a grouping `WITH` that keeps the node
/// and counts the far ends. The last hop folds into the groups, so the
/// `Aggregate` line names its node; the `WITH … WHERE` follows.
#[test]
fn relocation_statement_folds_its_last_hop() {
    assert_eq!(
        explain(
            "MATCH (c:City {pop: 2000}) \
             MATCH (p:Person {team: 'red'})-[:LIVES_IN]-(:City {pop: 1000}) \
             OPTIONAL MATCH (q:Person)-[:LIVES_IN]-(c) \
             WITH collect(DISTINCT p) AS movers, count(DISTINCT q) AS here, c \
             WHERE size(movers) + here <= 6 \
             RETURN c.pop AS pop, size(movers) AS movers, here"
        ),
        "Plan\n\
         \x20 Seed (c) access=LabelScan(City) est=4 rows\n\
         \x20 Seed (p) access=CompositeProbe(Person[team,score]) est=4 rows\n\
         \x20 Expand -[:LIVES_IN]-(_:City) fanout=2.00 est=8 rows\n\
         \x20 OptionalSeed (c) access=BoundVar(c) est=1 rows\n\
         \x20 Expand -[:LIVES_IN]-(q:Person) fanout=4.00 est=4 rows\n\
         \x20 Aggregate [movers, here, c] folds (q)\n\
         \x20 Filter ((size(movers) + here) <= 6)\n\
         \x20 Project [pop, movers, here]\n\
         estimated match rows: 128\n\
         actual rows: 1\n"
    );
}

/// A query may end in its `MATCH`: there is no projection after it to
/// fold into, and the plan still prints.
#[test]
fn query_ending_in_a_match_prints_its_plan() {
    assert_eq!(
        explain("MATCH (c:City)<-[:LIVES_IN]-(p:Person)"),
        "Plan\n\
         \x20 Seed (c) access=LabelScan(City) est=4 rows\n\
         \x20 Expand <-[:LIVES_IN]-(p:Person) fanout=4.00 est=16 rows\n\
         estimated match rows: 16\n\
         actual rows: 16\n"
    );
}
