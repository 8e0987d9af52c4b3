//! Differential query fuzzing: indexed and unindexed twins must never
//! disagree.
//!
//! In the certain-answer spirit of consistent query answering, every plan
//! the growing access-path space can choose — single-key equality/range/
//! prefix lookups, relationship indexes, composite (multi-key) indexes,
//! ordered top-k walks, pinned composite walks — must produce exactly the
//! row multiset the brute-force unindexed semantics produces. This
//! proptest drives a mirrored pair of graphs through random mutation
//! scripts (including `rollback` / `rollback_to` mid-script) while a
//! random **index DDL script** creates and drops single-key, relationship
//! and composite indexes on the indexed twin only, and checks a randomly
//! generated panel of `MATCH`/`WHERE`/`ORDER BY`/`LIMIT` queries after
//! **every** step: zero divergences allowed.
//!
//! A second, concurrent mode runs the same random scripts on a **live
//! writer** while reader threads pin snapshots as fast as they can and
//! evaluate the query panel against each pinned epoch. The writer records
//! which statement prefix each published epoch corresponds to; after the
//! threads join, every (epoch, panel-results) observation is checked
//! against a fresh serial replay of that prefix on an isolated graph.
//! Zero divergences allowed — this is the snapshot-isolation analogue of
//! the twin oracle.
//!
//! A third mode is the **executor twin**: the same mutation scripts and
//! query panels (extended with multi-`MATCH` pipelines that feed many
//! seed rows into a second pattern — the shape the matcher groups) run
//! once under [`MatchMode::Batched`], where seeds that share a plan form
//! one group that shares seed candidates and memoizes hops, and once
//! under [`MatchMode::Reference`], where every seed is its own group and
//! nothing is shared. Both run the one stage pipeline, so the outputs
//! must be **row-for-row identical including order**: this checks the
//! sharing logic, and, through grouping projections right after a
//! `MATCH`, the batched run's folding of the last hop into the groups
//! (the reference run never folds). The batched run also plans once per
//! run of seeds that agree on what planning reads, and keeps only the
//! candidates a shared hop's node test passed; fixed shapes run after
//! every step check where both must decline — a position that reads a
//! seed's value, and seed rows whose names differ — and that each run of
//! seeds holding equal values is planned from its own values (the last
//! two given to the executor directly). Both twins of this file share the
//! planner and the hop expansion with what they check; `match_oracle.rs`
//! holds the matcher to a brute-force enumerator that shares neither.
//!
//! Top-k queries project exactly their order keys, so sorted-row-multiset
//! equality is the right oracle even at tie cut-offs (tied rows carry
//! identical key tuples).
//!
//! `PG_FUZZ_CASES` (read in CI's nightly and concurrency jobs) raises the
//! proptest case count for long soak runs; the default stays fast enough
//! for every PR.

use pg_cypher::{parse_query, run_query, run_read_only, Executor, MatchMode, Params, Row, Target};
use pg_graph::{Graph, GraphView, IndexDef, StatementMark, Value};
use proptest::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

const STRINGS: [&str; 5] = ["al", "alpha", "bet", "beta", "gamma"];
const TAGS: [&str; 2] = ["t0", "t1"];
const REL_TYPES: [&str; 2] = ["R", "S"];

fn props(entries: Vec<(&str, Value)>) -> pg_graph::PropertyMap {
    entries
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

#[derive(Debug, Clone)]
enum Step {
    CreateNode {
        label: u8,
        k: i64,
        m: Option<i64>,
        s: Option<u8>,
    },
    CreateRel {
        a: usize,
        b: usize,
        w: i64,
        tag: u8,
        /// Picks the type from [`REL_TYPES`], so a node can carry two.
        ty: u8,
    },
    DetachDelete {
        pick: usize,
    },
    SetProp {
        pick: usize,
        which: u8,
        val: i64,
    },
    RemoveProp {
        pick: usize,
        which: u8,
    },
    SetRelW {
        pick: usize,
        val: i64,
    },
    /// Create-or-drop one of the eight index definitions — on the
    /// **indexed twin only** (the concurrent driver always applies it).
    ToggleIndex {
        which: u8,
    },
    Begin,
    Mark,
    RollbackTo,
    Rollback,
    Commit,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // the vendored proptest shim has no `option`/`bool` modules; small
    // integer ranges stand in (0 = absent / false)
    let create_node =
        (0u8..2, -5i64..5, -6i64..5, 0u8..6).prop_map(|(label, k, m, s)| Step::CreateNode {
            label,
            k,
            m: (m > -6).then_some(m),
            s: s.checked_sub(1),
        });
    let set_prop = (0usize..16, 0u8..3, -5i64..5).prop_map(|(pick, which, val)| Step::SetProp {
        pick,
        which,
        val,
    });
    let toggle = (0u8..8).prop_map(|which| Step::ToggleIndex { which });
    prop_oneof![
        create_node.clone(),
        create_node,
        (0usize..16, 0usize..16, -5i64..5, 0u8..2, 0u8..2)
            .prop_map(|(a, b, w, tag, ty)| { Step::CreateRel { a, b, w, tag, ty } }),
        (0usize..16).prop_map(|pick| Step::DetachDelete { pick }),
        set_prop.clone(),
        set_prop,
        (0usize..16, 0u8..3).prop_map(|(pick, which)| Step::RemoveProp { pick, which }),
        (0usize..16, -5i64..5).prop_map(|(pick, val)| Step::SetRelW { pick, val }),
        toggle.clone(),
        toggle,
        Just(Step::Begin),
        Just(Step::Mark),
        Just(Step::RollbackTo),
        Just(Step::Rollback),
        Just(Step::Commit),
    ]
}

/// One randomly generated panel query. Top-k templates return exactly
/// their order keys (see module docs).
fn query_strategy() -> impl Strategy<Value = String> {
    let label = |l: u8| if l == 0 { "A" } else { "B" };
    prop_oneof![
        (0u8..2, -5i64..5).prop_map(move |(l, v)| format!(
            "MATCH (x:{}) WHERE x.k = {v} RETURN x.k AS a, x.m AS b",
            label(l)
        )),
        (0u8..2, -5i64..5, -5i64..5).prop_map(move |(l, v, w)| format!(
            "MATCH (x:{}) WHERE x.k = {v} AND x.m >= {w} RETURN x.k AS a, x.m AS b",
            label(l)
        )),
        (0u8..2, -5i64..5, 0i64..6).prop_map(move |(l, lo, span)| format!(
            "MATCH (x:{}) WHERE x.k >= {lo} AND x.k < {} RETURN x.k AS a",
            label(l),
            lo + span
        )),
        (0u8..2, -5i64..5, 0usize..3).prop_map(move |(l, v, p)| format!(
            "MATCH (x:{}) WHERE x.k = {v} AND x.s STARTS WITH '{}' RETURN x.k AS a, x.s AS b",
            label(l),
            &STRINGS[p][..2]
        )),
        (0u8..2, 1usize..5, 0u8..2).prop_map(move |(l, lim, desc)| {
            let d = if desc == 1 { " DESC" } else { "" };
            format!(
                "MATCH (x:{}) WITH x ORDER BY x.k{d}, x.m{d} LIMIT {lim} \
                 RETURN x.k AS a, x.m AS b",
                label(l)
            )
        }),
        (0u8..2, -5i64..5, 1usize..4).prop_map(move |(l, v, lim)| format!(
            "MATCH (x:{} {{k: {v}}}) WITH x ORDER BY x.m LIMIT {lim} RETURN x.m AS a",
            label(l)
        )),
        (0u8..2, 1usize..4, 0usize..3).prop_map(move |(l, lim, skip)| format!(
            "MATCH (x:{}) WITH x ORDER BY x.s SKIP {skip} LIMIT {lim} RETURN x.s AS a",
            label(l)
        )),
        (0u8..2, -5i64..5).prop_map(move |(t, v)| format!(
            "MATCH (p)-[r:R]->(q) WHERE r.tag = '{}' AND r.w >= {v} RETURN r.w AS a",
            TAGS[t as usize % 2]
        )),
        (1usize..4, 0u8..2).prop_map(|(lim, desc)| {
            let d = if desc == 1 { " DESC" } else { "" };
            format!("MATCH (p)-[r:R]->(q) WITH r ORDER BY r.w{d} LIMIT {lim} RETURN r.w AS a")
        }),
        (-5i64..5, -5i64..5).prop_map(|(v, w)| format!(
            "MATCH (x:A)-[r:R]->(y) WHERE x.k = {v} AND r.w < {w} RETURN x.k AS a, r.w AS b"
        )),
    ]
}

/// Panel queries whose later `MATCH` clauses receive many seed rows —
/// the shape [`MatchMode::Batched`] groups into stage-wise execution,
/// including pushed operands over live variables (sharing must disable
/// itself), transition variables, `OPTIONAL MATCH` per-seed null
/// binding, and relationship-uniqueness across clauses.
fn multi_seed_query_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        (-5i64..5).prop_map(|v| format!(
            "MATCH (x:A) MATCH (y:B) WHERE y.k = x.k AND y.m >= {v} \
             RETURN x.k AS a, y.m AS b"
        )),
        Just("MATCH (x:A) MATCH (x)-[r:R]->(y) RETURN x.k AS a, r.w AS b".to_string()),
        (-5i64..5).prop_map(|v| format!(
            "MATCH (x:A) MATCH (y:B) WHERE x.k < y.k AND y.k >= {v} \
             RETURN x.k AS a, y.k AS b"
        )),
        Just(
            "MATCH (p)-[r:R]->(q) MATCH (q)-[r2:R]->(z) \
             RETURN r.w AS a, r2.w AS b"
                .to_string()
        ),
        (-5i64..5)
            .prop_map(|v| format!("MATCH (x:B) MATCH (y:B {{k: {v}}}) RETURN x.k AS a, y.k AS b")),
        Just(
            "MATCH (x:A) OPTIONAL MATCH (x)-[r:R]->(y:B) \
             RETURN x.k AS a, r.w AS b"
                .to_string()
        ),
        Just(
            "MATCH (x:A) MATCH (y:B {s: 'beta'}) MATCH (z:A) \
             RETURN x.k AS a, y.k AS b, z.k AS c"
                .to_string()
        ),
    ]
}

/// Multi-seed shapes the executor twin runs after every step: the second
/// `MATCH` must be planned per seed row, or its shared hop must not keep
/// only the candidates one row's node test passed, because a position
/// reads a seed's value — an inline property over a seed variable (at the
/// anchor, or at a hop's target reached from a shared source), a pushed
/// `WHERE b.k = a.k`, and a transition label bound to lists of different
/// lengths per seed (the plan's anchor moves with the length; the node
/// test differs per row).
const PER_SEED_QUERIES: [&str; 6] = [
    "MATCH (x:A) MATCH (y:B {k: x.k}) RETURN x.k AS a, y.m AS b",
    "MATCH (a:A) MATCH (b:B) WHERE b.k = a.k RETURN a.k AS a, b.m AS b",
    "MATCH (x:A) MATCH (w:B)-[r:R]->(z {k: x.k}) RETURN x.k AS a, w.k AS b, r.w AS c",
    "MATCH (x) MATCH (x)-[:R]-(m)-[:R]-(z {k: x.k}) RETURN x.k AS a, m.k AS b, z.m AS c",
    "MATCH (x:A) OPTIONAL MATCH (x)-[:R]-(y) WITH x, collect(y) AS ys \
     MATCH (z:ys)-[r:R]->(w:B) RETURN x.k AS a, z.k AS b, r.w AS c",
    "MATCH (x) OPTIONAL MATCH (x)-[:R]-(y) WITH x, collect(y) AS ys \
     MATCH (x)-[:R]-(m)-[:R]-(z:ys) RETURN x.k AS a, m.k AS b, z.k AS c",
];

/// Queries the executor twin also runs over [`mixed_seeds`]: seed rows
/// whose name lists differ, so none of them may be planned from another's
/// names. `T` is a transition label in the rows that bind it and a stored
/// label (no node carries it) in the rest; the last query's shared second
/// hop meets a node test that reads `T`.
const MIXED_SEED_QUERIES: [&str; 3] = [
    "MATCH (y:T)-[r:R]->(z:B) RETURN x AS a, y AS b, r.w AS c",
    "MATCH (x)-[r:R]-(y:T) RETURN x AS a, r.w AS b, y AS c",
    "MATCH (x)-[:R]-(m)-[:R]-(y:T) RETURN x AS a, m AS b, y AS c",
];

/// One seed row per node of `g`, binding `x` to it; the second half also
/// binds `T` to a list of the first one, two or three nodes.
fn mixed_seeds(g: &Graph) -> Vec<Row> {
    let nodes = g.all_node_ids();
    let node_list = |n: usize| Value::List(nodes[..n].iter().map(|&m| Value::Node(m)).collect());
    (0..nodes.len())
        .map(|i| {
            let x = ("x", Value::Node(nodes[i]));
            match i < nodes.len() / 2 {
                true => Row::from_pairs([x]),
                false => Row::from_pairs([x, ("T", node_list(1 + i % 3))]),
            }
        })
        .collect()
}

/// The `:ys` shapes of [`PER_SEED_QUERIES`] over a seed-bound `T`, and two
/// paths whose join order follows `T`'s length (the cheaper path runs
/// outermost); the executor twin runs them and [`MIXED_SEED_QUERIES`]
/// over [`equal_run_seeds`].
const EQUAL_RUN_QUERIES: [&str; 3] = [
    "MATCH (z:T)-[r:R]->(w:B) RETURN x AS a, z AS b, r.w AS c",
    "MATCH (x)-[:R]-(m)-[:R]-(z:T) RETURN x AS a, m AS b, z AS c",
    "MATCH (z:T), (w:B) RETURN x AS a, z AS b, w AS c",
];

/// One seed row per node of `g`, binding `x` to it and `T` to one of two
/// node lists, in blocks of six whose lists run A A B A A A: consecutive
/// seeds hold equal lists in runs of length 2, 1 and 3, and the list
/// returns to an earlier one after B. A is the first node alone in even
/// blocks and every node, newest first, in odd ones; B is the other. The
/// long list may move the planned anchor off `T`, and enumerates matches
/// from `T` in the opposite order to a label scan, so a run planned from
/// another run's values emits its matches in another order.
fn equal_run_seeds(g: &Graph) -> Vec<Row> {
    let nodes = g.all_node_ids();
    let short = Value::List(nodes.iter().take(1).map(|&m| Value::Node(m)).collect());
    let long = Value::List(nodes.iter().rev().map(|&m| Value::Node(m)).collect());
    (0..nodes.len())
        .map(|i| {
            // B's slot of an even block, or A's of an odd one.
            let t = match (i % 6 == 2) == (i / 6 % 2 == 0) {
                true => long.clone(),
                false => short.clone(),
            };
            Row::from_pairs([("x", Value::Node(nodes[i])), ("T", t)])
        })
        .collect()
}

/// The multi-seed panel's grouping projections right after a `MATCH`
/// whose last stage is one hop: [`MatchMode::Batched`] folds the hop into the groups once per
/// state, [`MatchMode::Reference`] never folds, and the two must agree row
/// for row — group order, `collect` order and every aggregate. The panel
/// covers `count(*)`, a bare hop variable, seed-side arguments pushed once
/// (`DISTINCT`, `min`, `max`) or once per candidate (`sum`, `avg`,
/// `collect`), `OPTIONAL MATCH` seeds with empty expansions, multi-edges
/// and self-loops (undirected hops), relationship uniqueness within the
/// `MATCH`, and the declines: an argument that reads the hop, a hop whose
/// variables the seed binds, a self-loop back to a bound node and a
/// variable-length last segment.
fn grouped_last_hop_query_strategy() -> impl Strategy<Value = String> {
    let queries = [
        "MATCH (x:A) MATCH (x)-[r:R]-(y) RETURN x.k AS a, count(*) AS b",
        "MATCH (x) MATCH (x)-[r:R]->(y:B) \
         RETURN x AS a, count(y) AS b, count(DISTINCT y) AS c",
        "MATCH (x:A) OPTIONAL MATCH (x)<-[r:R]-(y) \
         WITH x, count(DISTINCT y) AS c, count(r) AS n RETURN x.k AS a, c AS b, n AS d",
        "MATCH (x) OPTIONAL MATCH (x)-[:R]->(y:A) \
         RETURN x.k AS a, collect(DISTINCT x) AS b, collect(y) AS c",
        "MATCH (p)-[r:R]->(q) MATCH (q)-[r2:R]-(z) \
         RETURN q AS a, sum(p.k) AS b, min(p.m) AS c, avg(r.w) AS d, max(q.s) AS e, \
         collect(p.k) AS f",
        "MATCH (x:B) MATCH (x)-[r:R]-(y)-[r2:R]-(z) \
         RETURN y AS a, count(*) AS b, collect(r2) AS c, count(DISTINCT x) AS d",
        "MATCH (x:A) MATCH (x)-[:R]-(y) RETURN DISTINCT x.k AS a",
        "MATCH (x) MATCH (x)-[r:R]->(y) \
         RETURN count(*) AS a, count(DISTINCT y) AS b, sum(r.w) AS c",
        "MATCH (x:A)-[r:R]->(y) MATCH (x)-[r]->(y) RETURN x.k AS a, count(*) AS b",
        "MATCH (x:A) MATCH (x)-[:R]-(x) RETURN x.k AS a, count(*) AS b",
        "MATCH (x:A) MATCH (x)-[:R*1..2]->(y) RETURN x.k AS a, count(DISTINCT y) AS b",
        // Every earlier segment is typed apart from the last hop's type:
        // the fold takes the shared candidates without looking again.
        "MATCH (x) MATCH (x)-[:R]->(y)-[:S]->(z) RETURN count(*) AS a, count(DISTINCT z) AS b",
        // An earlier segment may bind an `S`: the fold checks each one.
        "MATCH (x) MATCH (x)-[:R|S]-(y)-[:S]-(z) RETURN count(*) AS a, count(DISTINCT z) AS b",
        "MATCH (x) MATCH (x)--(y)-[:S]-(z) RETURN count(*) AS a, count(DISTINCT z) AS b",
        "MATCH (x) MATCH (x)-[:S*1..2]->(y)-[:S]->(z) RETURN count(*) AS a, count(DISTINCT z) AS b",
    ];
    (0..queries.len()).prop_map(move |i| queries[i].to_string())
}

/// Single-graph script driver. Step application is fully deterministic
/// given the step sequence (picks resolve against the current node/rel
/// extent, which evolves identically on every replay), so two drivers fed
/// the same steps always hold identical graphs — the property both the
/// twin oracle and the concurrent serial-replay oracle rely on.
#[derive(Default)]
struct Script {
    g: Graph,
    marks: Vec<StatementMark>,
}

impl Script {
    fn toggle_index(&mut self, which: u8) {
        let def = match which % 8 {
            0 => IndexDef::node("A", &["k"]),
            1 => IndexDef::node("B", &["k"]),
            2 => IndexDef::node("A", &["s"]),
            3 => IndexDef::rel("R", &["w"]),
            4 => IndexDef::node("A", &["k", "m"]),
            5 => IndexDef::node("A", &["k", "s"]),
            6 => IndexDef::node("B", &["k", "m"]),
            _ => IndexDef::rel("R", &["tag", "w"]),
        };
        if !self.g.define_index(&def) {
            self.g.drop_index(&def);
        }
    }

    fn apply(&mut self, step: &Step) {
        let nodes = self.g.all_node_ids();
        let rels = self.g.all_rel_ids();
        let g = &mut self.g;
        match step {
            Step::CreateNode { label, k, m, s } => {
                let label = if *label == 0 { "A" } else { "B" };
                let mut entries = vec![("k", Value::Int(*k))];
                if let Some(m) = m {
                    entries.push(("m", Value::Int(*m)));
                }
                if let Some(s) = s {
                    entries.push(("s", Value::str(STRINGS[*s as usize % STRINGS.len()])));
                }
                g.create_node([label], props(entries)).unwrap();
            }
            Step::CreateRel { a, b, w, tag, ty } => {
                if !nodes.is_empty() {
                    let (a, b) = (nodes[a % nodes.len()], nodes[b % nodes.len()]);
                    let tag = TAGS[*tag as usize % TAGS.len()];
                    g.create_rel(
                        a,
                        b,
                        REL_TYPES[*ty as usize % REL_TYPES.len()],
                        props(vec![("w", Value::Int(*w)), ("tag", Value::str(tag))]),
                    )
                    .unwrap();
                }
            }
            Step::DetachDelete { pick } => {
                if !nodes.is_empty() {
                    g.detach_delete_node(nodes[pick % nodes.len()]).unwrap();
                }
            }
            Step::SetProp { pick, which, val } => {
                if !nodes.is_empty() {
                    let id = nodes[pick % nodes.len()];
                    let (key, value) = match which % 3 {
                        0 => ("k", Value::Int(*val)),
                        1 => ("m", Value::Int(*val)),
                        _ => (
                            "s",
                            Value::str(STRINGS[val.unsigned_abs() as usize % STRINGS.len()]),
                        ),
                    };
                    g.set_node_prop(id, key, value).unwrap();
                }
            }
            Step::RemoveProp { pick, which } => {
                if !nodes.is_empty() {
                    let id = nodes[pick % nodes.len()];
                    let key = ["k", "m", "s"][*which as usize % 3];
                    g.remove_node_prop(id, key).unwrap();
                }
            }
            Step::SetRelW { pick, val } => {
                if !rels.is_empty() {
                    let id = rels[pick % rels.len()];
                    g.set_rel_prop(id, "w", Value::Int(*val)).unwrap();
                }
            }
            Step::ToggleIndex { which } => self.toggle_index(*which),
            Step::Begin => {
                if !g.in_tx() {
                    g.begin().unwrap();
                    self.marks.clear();
                }
            }
            Step::Mark => {
                if g.in_tx() {
                    self.marks.push(g.mark());
                }
            }
            Step::RollbackTo => {
                if g.in_tx() {
                    if let Some(m) = self.marks.pop() {
                        g.rollback_to(m).unwrap();
                    }
                }
            }
            Step::Rollback => {
                if g.in_tx() {
                    g.rollback().unwrap();
                    self.marks.clear();
                }
            }
            Step::Commit => {
                if g.in_tx() {
                    g.commit().unwrap();
                    self.marks.clear();
                }
            }
        }
    }
}

/// Mirrored script driver (mutations hit both twins, DDL only the
/// indexed one).
#[derive(Default)]
struct Twin {
    plain: Script,
    indexed: Script,
}

impl Twin {
    fn apply(&mut self, step: &Step) {
        if let Step::ToggleIndex { .. } = step {
            self.indexed.apply(step);
        } else {
            self.plain.apply(step);
            self.indexed.apply(step);
        }
    }
}

fn sort_rows(rows: &mut [Vec<Value>]) {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let ord = x.cmp_order(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Sorted row multiset of a query result against the live writer graph.
fn rows_of(g: &mut Graph, q: &str) -> Vec<Vec<Value>> {
    let out = run_query(g, q, &Params::new(), 0).unwrap_or_else(|e| panic!("{q}: {e}"));
    let mut rows = out.rows;
    sort_rows(&mut rows);
    rows
}

/// Sorted row multiset of a query result against any [`GraphView`]
/// (snapshots included) through the read-only executor.
fn rows_of_view(view: &dyn GraphView, q: &str) -> Vec<Vec<Value>> {
    let query = parse_query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
    let out = run_read_only(view, &query, Vec::new(), &Params::new(), 0)
        .unwrap_or_else(|e| panic!("{q}: {e}"));
    let mut rows = out.rows;
    sort_rows(&mut rows);
    rows
}

/// Run `q` read-only under an explicit [`MatchMode`], preserving row
/// order (the executor twin demands order equality, not just multisets).
fn rows_under_mode(view: &dyn GraphView, q: &str, mode: MatchMode) -> Vec<Vec<Value>> {
    let query = parse_query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
    let params = Params::new();
    Executor::new(Target::Read(view), &params, 0)
        .with_match_mode(mode)
        .run(&query, Vec::new())
        .unwrap_or_else(|e| panic!("{q}: {e}"))
        .rows
}

fn check_exec_twin(g: &Graph, panel: &[String], step: usize) {
    for q in panel {
        let batched = rows_under_mode(g, q, MatchMode::Batched);
        let reference = rows_under_mode(g, q, MatchMode::Reference);
        assert_eq!(
            batched,
            reference,
            "batched/reference executor divergence after step {step} for {q}\n\
             indexes: {:?}",
            g.indexes(),
        );
    }
    for q in PER_SEED_QUERIES {
        let batched = rows_under_mode(g, q, MatchMode::Batched);
        let reference = rows_under_mode(g, q, MatchMode::Reference);
        assert_eq!(
            batched, reference,
            "batched/reference divergence in a per-seed shape after step {step} for {q}",
        );
    }
    let seeds = mixed_seeds(g);
    for q in MIXED_SEED_QUERIES {
        let batched = seeded_rows_under_mode(g, q, &seeds, MatchMode::Batched);
        let reference = seeded_rows_under_mode(g, q, &seeds, MatchMode::Reference);
        assert_eq!(
            batched, reference,
            "batched/reference divergence over mixed seeds after step {step} for {q}",
        );
    }
    let seeds = equal_run_seeds(g);
    for q in MIXED_SEED_QUERIES.iter().chain(&EQUAL_RUN_QUERIES) {
        let batched = seeded_rows_under_mode(g, q, &seeds, MatchMode::Batched);
        let reference = seeded_rows_under_mode(g, q, &seeds, MatchMode::Reference);
        assert_eq!(
            batched, reference,
            "batched/reference divergence over runs of equal seeds after step {step} for {q}",
        );
    }
}

/// [`rows_under_mode`] with the statement's input rows given.
fn seeded_rows_under_mode(
    view: &dyn GraphView,
    q: &str,
    seeds: &[Row],
    mode: MatchMode,
) -> Vec<Vec<Value>> {
    let query = parse_query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
    let params = Params::new();
    Executor::new(Target::Read(view), &params, 0)
        .with_match_mode(mode)
        .run(&query, seeds.to_vec())
        .unwrap_or_else(|e| panic!("{q}: {e}"))
        .rows
}

fn check_panel(t: &mut Twin, panel: &[String], step: usize) {
    for q in panel {
        let plain = rows_of(&mut t.plain.g, q);
        let indexed = rows_of(&mut t.indexed.g, q);
        assert_eq!(
            plain,
            indexed,
            "indexed/unindexed divergence after step {step} for {q}\n\
             indexes: {:?}",
            t.indexed.g.indexes(),
        );
    }
}

/// Panel results for every epoch one reader thread managed to pin.
type Observations = HashMap<u64, Vec<Vec<Vec<Value>>>>;

/// Concurrent differential oracle: run `steps` on a live writer while
/// `readers` threads pin snapshots and evaluate `panel` against each
/// distinct epoch they observe. The writer publishes after every step
/// that ends outside a transaction and records the epoch → statement
/// prefix mapping; afterwards each observation must equal a serial replay
/// of that prefix on a fresh, isolated graph.
fn concurrent_case(steps: &[Step], panel: &[String], readers: usize) {
    let mut writer = Script::default();
    let handle = writer.g.reader_handle();

    // epoch → number of leading steps whose full effect that epoch
    // publishes. Distinct prefixes sharing an epoch are value-identical
    // (no publication bump means no visible change), so first-wins.
    let mut prefixes: HashMap<u64, usize> = HashMap::new();
    prefixes.insert(handle.epoch(), 0);

    let done = AtomicBool::new(false);
    let observations: Vec<Observations> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..readers)
            .map(|_| {
                let h = handle.clone();
                let done = &done;
                scope.spawn(move || {
                    let mut seen = Observations::new();
                    let mut last = 0u64;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let snap = h.snapshot();
                        let epoch = snap.epoch();
                        assert!(epoch >= last, "epochs must be monotonic");
                        last = epoch;
                        if let Entry::Vacant(e) = seen.entry(epoch) {
                            e.insert(panel.iter().map(|q| rows_of_view(&snap, q)).collect());
                        } else {
                            std::thread::yield_now();
                        }
                        if finished {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();

        for (i, step) in steps.iter().enumerate() {
            writer.apply(step);
            if !writer.g.in_tx() {
                // Publish (the snapshot request flushes any pending
                // out-of-transaction effects) and record the boundary.
                let epoch = writer.g.snapshot().epoch();
                prefixes.entry(epoch).or_insert(i + 1);
            }
            // Give readers a chance to pin intermediate epochs, not just
            // the final one.
            std::thread::yield_now();
        }
        if writer.g.in_tx() {
            writer.apply(&Step::Commit);
            prefixes
                .entry(writer.g.snapshot().epoch())
                .or_insert(steps.len());
        }
        done.store(true, Ordering::Release);

        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    // Serial-replay oracle: rebuild each observed prefix from scratch and
    // demand identical panel rows. The replay cache shares work between
    // readers that pinned the same epoch.
    let mut replayed: HashMap<usize, Vec<Vec<Vec<Value>>>> = HashMap::new();
    for seen in &observations {
        for (epoch, results) in seen {
            let prefix = *prefixes
                .get(epoch)
                .unwrap_or_else(|| panic!("reader pinned unpublished epoch {epoch}"));
            let expected = &*replayed.entry(prefix).or_insert_with(|| {
                let mut replay = Script::default();
                for step in &steps[..prefix] {
                    replay.apply(step);
                }
                if replay.g.in_tx() {
                    // Only the forced tail commit records a prefix that
                    // ends inside a transaction.
                    replay.apply(&Step::Commit);
                }
                let snap = replay.g.snapshot();
                panel.iter().map(|q| rows_of_view(&snap, q)).collect()
            });
            assert_eq!(
                results, expected,
                "snapshot at epoch {epoch} diverged from a serial replay \
                 of its {prefix}-statement prefix"
            );
        }
    }
}

fn fuzz_cases() -> u32 {
    std::env::var("PG_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: fuzz_cases() })]

    #[test]
    fn every_plan_agrees_with_brute_force(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        panel in proptest::collection::vec(query_strategy(), 3..7),
    ) {
        let mut t = Twin::default();
        for (i, step) in steps.iter().enumerate() {
            t.apply(step);
            check_panel(&mut t, &panel, i);
        }
        if t.plain.g.in_tx() {
            t.apply(&Step::Commit);
        }
        check_panel(&mut t, &panel, steps.len());
    }

    #[test]
    fn batched_executor_agrees_with_reference(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        single in proptest::collection::vec(query_strategy(), 1..4),
        multi in proptest::collection::vec(multi_seed_query_strategy(), 2..5),
        grouped in proptest::collection::vec(grouped_last_hop_query_strategy(), 3..6),
    ) {
        let mut panel = single;
        panel.extend(multi);
        panel.extend(grouped);
        let mut s = Script::default();
        for (i, step) in steps.iter().enumerate() {
            s.apply(step);
            check_exec_twin(&s.g, &panel, i);
        }
        if s.g.in_tx() {
            s.apply(&Step::Commit);
        }
        check_exec_twin(&s.g, &panel, steps.len());
    }

    #[test]
    fn concurrent_readers_agree_with_serial_replay(
        steps in proptest::collection::vec(step_strategy(), 1..50),
        panel in proptest::collection::vec(query_strategy(), 3..6),
    ) {
        concurrent_case(&steps, &panel, 3);
    }
}
