//! Plan invariance under random graphs, mutations, and undo steps.
//!
//! The planner v3 machinery — cardinality statistics, count-only probes,
//! bounded top-k selection, and index-served `ORDER BY … LIMIT` — is pure
//! access-path choice: for any query, a graph **with** indexes must
//! produce the same multiset of rows as the identical graph **without**
//! them (the naive scan/sort path). This property test drives random
//! mutation scripts — including `rollback` and `rollback_to` mid-script —
//! over an indexed/unindexed twin pair and checks, after every undo step:
//!
//! * every query in a fixed panel (equality, range, prefix, `ORDER BY …
//!   LIMIT` ascending/descending, with and without `SKIP`) returns the
//!   same sorted row multiset on both twins (for top-k queries the order
//!   *keys* are compared — ties at the cut may legitimately pick
//!   different tied rows — plus subset containment in the full result);
//! * the statistics the indexed twin plans from stay consistent with
//!   brute-force recounts: `node_prop_stats` totals/distincts, exact
//!   equality counts, and histogram range estimates within the documented
//!   error bound.

use pg_cypher::{run_query, Params};
use pg_graph::{Graph, GraphView, IndexDef, PropertyMap, StatementMark, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

#[derive(Debug, Clone)]
enum Step {
    CreateNode {
        label: u8,
        val: i64,
    },
    CreateRel {
        a: usize,
        b: usize,
        w: i64,
    },
    DetachDelete {
        pick: usize,
    },
    SetProp {
        pick: usize,
        val: i64,
    },
    SetProp2 {
        pick: usize,
        val: i64,
    },
    RemoveProp {
        pick: usize,
    },
    /// Create-or-drop a composite index mid-script (indexed twin only):
    /// the definition is not transactional, but its entries must stay
    /// exact through every later mutation *and undo* step.
    ToggleComposite {
        which: u8,
    },
    Begin,
    Mark,
    RollbackTo,
    Rollback,
    Commit,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..2, -6i64..6).prop_map(|(label, val)| Step::CreateNode { label, val }),
        (0u8..2, -6i64..6).prop_map(|(label, val)| Step::CreateNode { label, val }),
        (0usize..16, 0usize..16, -6i64..6).prop_map(|(a, b, w)| Step::CreateRel { a, b, w }),
        (0usize..16, 0usize..16, -6i64..6).prop_map(|(a, b, w)| Step::CreateRel { a, b, w }),
        (0usize..16).prop_map(|pick| Step::DetachDelete { pick }),
        (0usize..16, -6i64..6).prop_map(|(pick, val)| Step::SetProp { pick, val }),
        (0usize..16, -6i64..6).prop_map(|(pick, val)| Step::SetProp { pick, val }),
        (0usize..16, -6i64..6).prop_map(|(pick, val)| Step::SetProp2 { pick, val }),
        (0usize..16).prop_map(|pick| Step::RemoveProp { pick }),
        (0u8..2).prop_map(|which| Step::ToggleComposite { which }),
        Just(Step::Begin),
        Just(Step::Mark),
        Just(Step::RollbackTo),
        Just(Step::Rollback),
        Just(Step::Commit),
    ]
}

fn composite_cols() -> Vec<String> {
    vec!["k".to_string(), "m".to_string()]
}

/// Mirrored script driver: applies each step to both twins identically.
#[derive(Default)]
struct Twin {
    plain: Graph,
    indexed: Graph,
    marks_plain: Vec<StatementMark>,
    marks_indexed: Vec<StatementMark>,
}

impl Twin {
    fn new() -> Twin {
        let mut t = Twin::default();
        t.indexed.create_index("A", "k");
        t.indexed.create_index("B", "k");
        t.indexed.define_index(&IndexDef::rel("R", &["w"]));
        t
    }

    fn each(&mut self, f: impl Fn(&mut Graph)) {
        f(&mut self.plain);
        f(&mut self.indexed);
    }

    fn apply(&mut self, step: &Step) -> bool {
        // both twins always hold identical extents, so picks agree
        let nodes = self.plain.all_node_ids();
        let mut was_undo = false;
        match step {
            Step::CreateNode { label, val } => {
                let label = if *label == 0 { "A" } else { "B" };
                let v = *val;
                self.each(|g| {
                    let props: PropertyMap =
                        [("k".to_string(), Value::Int(v))].into_iter().collect();
                    g.create_node([label], props).unwrap();
                });
            }
            Step::CreateRel { a, b, w } => {
                if !nodes.is_empty() {
                    let (a, b, w) = (nodes[a % nodes.len()], nodes[b % nodes.len()], *w);
                    self.each(|g| {
                        let props: PropertyMap =
                            [("w".to_string(), Value::Int(w))].into_iter().collect();
                        g.create_rel(a, b, "R", props).unwrap();
                    });
                }
            }
            Step::DetachDelete { pick } => {
                if !nodes.is_empty() {
                    let id = nodes[pick % nodes.len()];
                    self.each(|g| g.detach_delete_node(id).unwrap());
                }
            }
            Step::SetProp { pick, val } => {
                if !nodes.is_empty() {
                    let (id, v) = (nodes[pick % nodes.len()], *val);
                    self.each(|g| g.set_node_prop(id, "k", Value::Int(v)).unwrap());
                }
            }
            Step::SetProp2 { pick, val } => {
                if !nodes.is_empty() {
                    let (id, v) = (nodes[pick % nodes.len()], *val);
                    self.each(|g| g.set_node_prop(id, "m", Value::Int(v)).unwrap());
                }
            }
            Step::ToggleComposite { which } => {
                let label = if *which == 0 { "A" } else { "B" };
                let c = composite_cols();
                if !self.indexed.create_composite_index(label, &c) {
                    self.indexed.drop_index(&IndexDef::node(label, &c));
                }
            }
            Step::RemoveProp { pick } => {
                if !nodes.is_empty() {
                    let id = nodes[pick % nodes.len()];
                    self.each(|g| {
                        g.remove_node_prop(id, "k").unwrap();
                    });
                }
            }
            Step::Begin => {
                if !self.plain.in_tx() {
                    self.each(|g| g.begin().unwrap());
                    self.marks_plain.clear();
                    self.marks_indexed.clear();
                }
            }
            Step::Mark => {
                if self.plain.in_tx() {
                    self.marks_plain.push(self.plain.mark());
                    self.marks_indexed.push(self.indexed.mark());
                }
            }
            Step::RollbackTo => {
                if self.plain.in_tx() {
                    if let (Some(mp), Some(mi)) = (self.marks_plain.pop(), self.marks_indexed.pop())
                    {
                        self.plain.rollback_to(mp).unwrap();
                        self.indexed.rollback_to(mi).unwrap();
                        was_undo = true;
                    }
                }
            }
            Step::Rollback => {
                if self.plain.in_tx() {
                    self.each(|g| g.rollback().unwrap());
                    self.marks_plain.clear();
                    self.marks_indexed.clear();
                    was_undo = true;
                }
            }
            Step::Commit => {
                if self.plain.in_tx() {
                    self.each(|g| {
                        g.commit().unwrap();
                    });
                    self.marks_plain.clear();
                    self.marks_indexed.clear();
                }
            }
        }
        was_undo
    }
}

/// Sorted row multiset of a query result.
fn rows_of(g: &mut Graph, q: &str) -> Vec<Vec<Value>> {
    let out = run_query(g, q, &Params::new(), 0).unwrap_or_else(|e| panic!("{q}: {e}"));
    let mut rows = out.rows;
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let ord = x.cmp_order(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

/// Queries whose full row multisets must agree exactly.
const EXACT_PANEL: &[&str] = &[
    "MATCH (x:A) WHERE x.k = 2 RETURN x.k AS k",
    "MATCH (x:A) WHERE x.k >= 0 AND x.k < 4 RETURN x.k AS k",
    "MATCH (x:B) WHERE x.k > -3 RETURN x.k AS k",
    "MATCH (a)-[r:R]->(b) WHERE r.w >= 1 RETURN r.w AS w",
    "MATCH (a:A)-[r:R]-(b) WHERE r.w < 2 RETURN a.k AS k, r.w AS w",
    // conjunctions a composite (k, m) index can serve end-to-end
    "MATCH (x:A) WHERE x.k = 1 AND x.m = -1 RETURN x.k AS k, x.m AS m",
    "MATCH (x:B) WHERE x.k = 0 AND x.m >= 0 RETURN x.k AS k, x.m AS m",
];

/// Top-k queries: the order-key multiset must agree (ties at the cut may
/// resolve to different rows), and each must be contained in the
/// unlimited result.
const TOPK_PANEL: &[(&str, &str)] = &[
    (
        "MATCH (x:A) WITH x ORDER BY x.k LIMIT 3 RETURN x.k AS k",
        "MATCH (x:A) RETURN x.k AS k",
    ),
    (
        "MATCH (x:A) WITH x ORDER BY x.k DESC LIMIT 2 RETURN x.k AS k",
        "MATCH (x:A) RETURN x.k AS k",
    ),
    (
        "MATCH (x:B) WITH x ORDER BY x.k SKIP 1 LIMIT 2 RETURN x.k AS k",
        "MATCH (x:B) RETURN x.k AS k",
    ),
    (
        "MATCH (a)-[r:R]->(b) WITH r ORDER BY r.w LIMIT 2 RETURN r.w AS w",
        "MATCH (a)-[r:R]->(b) RETURN r.w AS w",
    ),
    // multi-key orders a composite (k, m) index can serve as one walk
    (
        "MATCH (x:A) WITH x ORDER BY x.k, x.m LIMIT 3 RETURN x.k AS k, x.m AS m",
        "MATCH (x:A) RETURN x.k AS k, x.m AS m",
    ),
    (
        "MATCH (x:B) WITH x ORDER BY x.k DESC, x.m DESC LIMIT 2 RETURN x.k AS k, x.m AS m",
        "MATCH (x:B) RETURN x.k AS k, x.m AS m",
    ),
];

fn check_queries(t: &mut Twin) {
    for q in EXACT_PANEL {
        let plain = rows_of(&mut t.plain, q);
        let indexed = rows_of(&mut t.indexed, q);
        assert_eq!(plain, indexed, "row multiset diverged for {q}");
    }
    for (q, full_q) in TOPK_PANEL {
        let plain = rows_of(&mut t.plain, q);
        let indexed = rows_of(&mut t.indexed, q);
        assert_eq!(plain, indexed, "top-k key multiset diverged for {q}");
        // containment in the unlimited result (checked on the indexed twin)
        let mut full = rows_of(&mut t.indexed, full_q);
        for row in &indexed {
            let pos = full.iter().position(|r| r == row);
            assert!(pos.is_some(), "top-k row {row:?} not in full result of {q}");
            full.remove(pos.unwrap());
        }
    }
}

/// Brute-force recount of the indexed twin's statistics.
fn check_stats(g: &Graph) {
    for (label, key) in [("A", "k"), ("B", "k")] {
        let Some((total, distinct)) = g.node_prop_stats(label, key) else {
            continue;
        };
        let mut buckets: BTreeMap<i64, usize> = BTreeMap::new();
        let mut brute_total = 0usize;
        for id in g.nodes_with_label(label) {
            if let Some(Value::Int(v)) = g.node(id).and_then(|n| n.props.get(key)).cloned() {
                *buckets.entry(v).or_insert(0) += 1;
                brute_total += 1;
            }
        }
        assert_eq!(total, brute_total, "stats total diverged for {label}.{key}");
        assert_eq!(
            distinct,
            buckets.len(),
            "stats distinct diverged for {label}.{key}"
        );
        // exact equality counts for every live value
        for (v, n) in &buckets {
            assert_eq!(
                g.count_nodes_with_prop(label, key, &Value::Int(*v)),
                Some(*n),
                "eq count diverged for {label}.{key} = {v}"
            );
        }
        // histogram estimate within the documented error bound
        let exact: usize = buckets
            .iter()
            .filter(|(v, _)| **v >= 0)
            .map(|(_, n)| n)
            .sum();
        if let Some(est) = g.count_nodes_in_prop_range(
            label,
            key,
            Bound::Included(&Value::Int(0)),
            Bound::Unbounded,
        ) {
            let bound = 2 * total.div_ceil(32) + 16.max(total / 8);
            assert!(
                est.abs_diff(exact) <= bound,
                "range estimate {est} vs exact {exact} (bound {bound}) for {label}.{key}"
            );
        }
    }
    check_composite_stats(g);
}

/// Brute-force recount of the composite `(k, m)` statistics and counts:
/// totals cover the whole extent (missing values key on the explicit
/// marker), distinct counts key vectors, and full-/sub-width equality
/// counts are exact.
fn check_composite_stats(g: &Graph) {
    use pg_graph::CompositeTrailing;
    let c = composite_cols();
    for label in ["A", "B"] {
        let Some((total, distinct)) = g.node_composite_stats(label, &c) else {
            continue;
        };
        let mut vectors: BTreeMap<(Option<i64>, Option<i64>), usize> = BTreeMap::new();
        for id in g.nodes_with_label(label) {
            let k = match g.node(id).and_then(|n| n.props.get("k")).cloned() {
                Some(Value::Int(v)) => Some(v),
                _ => None,
            };
            let m = match g.node(id).and_then(|n| n.props.get("m")).cloned() {
                Some(Value::Int(v)) => Some(v),
                _ => None,
            };
            *vectors.entry((k, m)).or_insert(0) += 1;
        }
        let brute_total: usize = vectors.values().sum();
        assert_eq!(
            total, brute_total,
            "composite total diverged for {label}(k, m)"
        );
        assert_eq!(
            distinct,
            vectors.len(),
            "composite distinct diverged for {label}(k, m)"
        );
        // exact full-width equality counts for every live (k, m) pair
        for ((k, m), n) in &vectors {
            let (Some(k), Some(m)) = (k, m) else { continue };
            assert_eq!(
                g.count_nodes_with_composite(
                    label,
                    &c,
                    &[Value::Int(*k), Value::Int(*m)],
                    CompositeTrailing::None
                ),
                Some(*n),
                "composite eq count diverged for {label}(k={k}, m={m})"
            );
        }
        // sub-width prefix counts: nodes whose k matches, any m
        let mut by_k: BTreeMap<i64, usize> = BTreeMap::new();
        for ((k, _), n) in &vectors {
            if let Some(k) = k {
                *by_k.entry(*k).or_insert(0) += n;
            }
        }
        for (k, n) in &by_k {
            assert_eq!(
                g.count_nodes_with_composite(label, &c, &[Value::Int(*k)], CompositeTrailing::None),
                Some(*n),
                "composite prefix count diverged for {label}(k={k})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn indexed_and_naive_paths_agree(steps in proptest::collection::vec(step_strategy(), 1..60)) {
        let mut t = Twin::new();
        for step in &steps {
            let was_undo = t.apply(step);
            if was_undo {
                // stats must have survived the undo replay exactly
                check_stats(&t.indexed);
                check_queries(&mut t);
            }
        }
        // settle any open transaction, then final full check
        if t.plain.in_tx() {
            t.apply(&Step::Commit);
        }
        check_stats(&t.indexed);
        check_queries(&mut t);
    }
}
