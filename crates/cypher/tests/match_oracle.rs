//! The match oracle: a brute-force enumerator that shares nothing with the
//! matcher it checks.
//!
//! The matcher (`pg_cypher::batch`) plans each `MATCH` — anchors, join
//! order, index probes, pushed-down `WHERE` conjuncts — and expands its
//! candidates hop by hop from adjacency lists. The enumerator here does
//! none of that. For every path it tries every start node, every
//! relationship for each single hop and every relationship-unique trail
//! (grown from the whole relationship list) for each variable-length
//! segment, and keeps the assignments whose endpoints, directions, labels,
//! types, inline properties, pre-bound variables and clause-wide
//! relationship uniqueness hold and whose `WHERE` is true under
//! [`pg_cypher::expr::eval`]. It reads the store's plain record accessors
//! and calls no planner, no index and no probe.
//!
//! Random graphs of at most 8 nodes and 12 relationships (labels `A`/`B`,
//! types `R`/`S`, small int and string properties) are built twice, plain
//! and with node, relationship and composite indexes. Random `MATCH`,
//! `OPTIONAL MATCH` and `EXISTS` texts run on both from random seed rows
//! under both match modes. Seed rows pre-bind pattern variables and a
//! transition variable `T` that patterns use as a label (PG-Triggers §6.2).
//! The matcher's sorted row multiset must equal the enumerator's.
//!
//! `PG_FUZZ_CASES` raises the case count for soak runs.

use pg_cypher::ast::{Clause, Expr, NodePattern, PathPattern, RelPattern};
use pg_cypher::expr::{eval, EvalCtx};
use pg_cypher::{parse_query, Executor, MatchMode, Params, Row, Target};
use pg_graph::{Direction, Graph, GraphView, IndexDef, NodeId, PropertyMap, RelId, Value};
use proptest::prelude::*;

const STRINGS: [&str; 3] = ["x", "xy", "y"];

/// A node: its labels (0 none, 1 `A`, 2 `B`, 3 both), `k` and `s`
/// (3 = absent).
type NodeSpec = (u8, u8, u8);
/// A relationship: its endpoints (modulo the node count), type (0 `R`,
/// else `S`) and `w` (3 = absent).
type RelSpec = (usize, usize, u8, u8);

/// A node position: its variable (0–3 name `a`–`d`, else anonymous), its
/// labels (0–3 none, 4 `A`, 5 `B`, 6 `A:B`, 7 the transition variable `T`)
/// and an inline `k` (5–6 → `{k: 0|1}`, else none).
type NodePos = (u8, u8, u8);
/// A relationship position: named or not (0 = named `r<position>`), its
/// types, direction, length and an inline `w` (5–6 → `{w: 0|1}`).
type RelPos = (u8, u8, u8, u8, u8);
type PathSpec = (NodePos, Vec<(RelPos, NodePos)>);
/// A `WHERE` template over the pattern's variables, two picks and a
/// constant.
type WhereSpec = (u8, usize, usize, u8);
/// A seed row: `T` (0 unbound, 1 one node, 2 two nodes), `a` (2 → bound
/// to a node), `r0` (3 → one relationship, 4 → a list of them), and the
/// picks.
type SeedSpec = (u8, u8, u8, (usize, usize, usize, usize));

fn build(nodes: &[NodeSpec], rels: &[RelSpec], indexed: bool) -> Graph {
    let mut g = Graph::new();
    if indexed {
        for def in [
            IndexDef::node("A", &["k"]),
            IndexDef::node("B", &["k"]),
            IndexDef::node("A", &["s"]),
            IndexDef::node("B", &["k", "s"]),
            IndexDef::rel("R", &["w"]),
            IndexDef::rel("S", &["w"]),
        ] {
            assert!(g.define_index(&def));
        }
    }
    let mut ids = Vec::new();
    for &(labels, k, s) in nodes {
        let labels: &[&str] = match labels {
            0 => &[],
            1 => &["A"],
            2 => &["B"],
            _ => &["A", "B"],
        };
        let mut props = PropertyMap::new();
        if k < 3 {
            props.set("k".to_string(), Value::Int(k.into()));
        }
        if s < 3 {
            props.set("s".to_string(), Value::str(STRINGS[usize::from(s)]));
        }
        ids.push(g.create_node(labels.iter().copied(), props).unwrap());
    }
    for &(a, b, t, w) in rels {
        let mut props = PropertyMap::new();
        if w < 3 {
            props.set("w".to_string(), Value::Int(w.into()));
        }
        let t = if t == 0 { "R" } else { "S" };
        let (a, b) = (ids[a % ids.len()], ids[b % ids.len()]);
        g.create_rel(a, b, t, props).unwrap();
    }
    g.rebuild_stats();
    g
}

fn node_text(&(var, labels, k): &NodePos) -> String {
    let var = ["a", "b", "c", "d"].get(usize::from(var)).unwrap_or(&"");
    let labels = ["", "", "", "", ":A", ":B", ":A:B", ":T"][usize::from(labels)];
    let props = match k {
        5.. => format!(" {{k: {}}}", k - 5),
        _ => String::new(),
    };
    format!("({var}{labels}{props})")
}

fn rel_text(name: &str, &(named, types, dir, len, w): &RelPos) -> String {
    let var = if named == 0 { name } else { "" };
    let len = ["", "", "", "*1..2", "*2", "*0..1", "*1..3", "*"][usize::from(len)];
    // An unbounded segment is typed, so its trails stay few.
    let types = match (len, types) {
        ("*", _) => ":R",
        (_, types) => ["", "", ":R", ":S", ":R|S"][usize::from(types)],
    };
    let props = match w {
        5.. => format!(" {{w: {}}}", w - 5),
        _ => String::new(),
    };
    let body = format!("[{var}{types}{len}{props}]");
    match dir {
        0 => format!("-{body}->"),
        1 => format!("<-{body}-"),
        _ => format!("-{body}-"),
    }
}

/// The pattern list's text, and its named node and single-hop
/// relationship variables (what a `WHERE` may dereference).
fn patterns_text(paths: &[PathSpec]) -> (String, Vec<String>, Vec<String>) {
    let (mut texts, mut nodes, mut rels) = (Vec::new(), Vec::new(), Vec::new());
    let mut position = 0;
    let name_node = |pos: &NodePos, nodes: &mut Vec<String>| {
        let text = node_text(pos);
        if let Some(v) = ["a", "b", "c", "d"].get(usize::from(pos.0)) {
            if !nodes.iter().any(|n| n == v) {
                nodes.push(v.to_string());
            }
        }
        text
    };
    for (start, segments) in paths {
        let mut text = name_node(start, &mut nodes);
        for (rel, node) in segments {
            let name = format!("r{position}");
            position += 1;
            text.push_str(&rel_text(&name, rel));
            if rel.0 == 0 && rel.3 < 3 {
                rels.push(name);
            }
            text.push_str(&name_node(node, &mut nodes));
        }
        texts.push(text);
    }
    (texts.join(", "), nodes, rels)
}

fn where_text(
    &(template, x, y, c): &WhereSpec,
    nodes: &[String],
    rels: &[String],
) -> Option<String> {
    let pick = |names: &[String], i: usize| names.get(i % names.len().max(1)).cloned();
    let (x, y) = (pick(nodes, x)?, pick(nodes, y)?);
    Some(match template {
        0 => format!("{x}.k = {c}"),
        1 => format!("{x}.k = {y}.k"),
        2 => format!("{x}.k >= {c}"),
        3 => format!("{x}.s STARTS WITH 'x'"),
        4 => format!("{x}.k < {y}.k AND {y}.k <= {c}"),
        5 => format!("{x} <> {y}"),
        6 => format!("NOT {x}:B OR {y}.k = {c}"),
        7 => format!("{}.w = {c}", pick(rels, usize::from(c))?),
        8 => format!("{}.w < {c} AND {x}.s >= 'xy'", pick(rels, usize::from(c))?),
        _ => return None,
    })
}

fn seed_row(&(t, a, r, (p, q, u, v)): &SeedSpec, nodes: &[NodeId], rels: &[RelId]) -> Row {
    let node = |i: usize| Value::Node(nodes[i % nodes.len()]);
    let mut row = Row::new();
    match t {
        1 => row.set("T", Value::List(vec![node(p)])),
        2 => row.set("T", Value::List(vec![node(p), node(q)])),
        _ => {}
    }
    if a == 2 {
        row.set("a", node(q));
    }
    if !rels.is_empty() {
        let rel = |i: usize| Value::Rel(rels[i % rels.len()]);
        match r {
            3 => row.set("r0", rel(u)),
            4 if u % rels.len() == v % rels.len() => row.set("r0", Value::List(vec![rel(u)])),
            4 => row.set("r0", Value::List(vec![rel(u), rel(v)])),
            _ => {}
        }
    }
    row
}

/// Where a finished trail goes: its end node, its relationships, and the
/// relationships the clause has used so far.
type Trail<'t> = dyn FnMut(NodeId, &[RelId], &mut Vec<RelId>) + 't;

/// The brute-force enumerator over one graph.
struct Oracle<'g> {
    ctx: EvalCtx<'g>,
    nodes: Vec<NodeId>,
    /// Every relationship with its (source, target).
    rels: Vec<(RelId, NodeId, NodeId)>,
}

impl<'g> Oracle<'g> {
    fn new(g: &'g Graph, params: &'g Params) -> Oracle<'g> {
        let rels = g.all_rel_ids().into_iter().map(|r| {
            let (s, d) = g
                .rel(r)
                .map(|r| (r.src, r.dst))
                .expect("a live relationship");
            (r, s, d)
        });
        Oracle {
            ctx: EvalCtx::new(g, params, 0),
            nodes: g.all_node_ids(),
            rels: rels.collect(),
        }
    }

    /// What one seed row produces: its matches, or for an `OPTIONAL MATCH`
    /// without any the seed with the pattern's unbound variables null.
    fn rows(&self, seed: &Row, clause: &Clause) -> Vec<Row> {
        let Clause::Match {
            optional,
            patterns,
            where_clause,
        } = clause
        else {
            panic!("a MATCH clause");
        };
        let mut out = Vec::new();
        self.paths(
            patterns,
            where_clause.as_ref(),
            seed,
            &mut Vec::new(),
            &mut out,
        );
        if out.is_empty() && *optional {
            let mut row = seed.clone();
            for p in patterns {
                let rel_vars = p.segments.iter().map(|(r, _)| &r.var);
                let node_vars = p.segments.iter().map(|(_, n)| &n.var);
                for v in rel_vars.chain(node_vars).chain([&p.start.var]).flatten() {
                    if row.get(v).is_none() {
                        row.set(v, Value::Null);
                    }
                }
            }
            out.push(row);
        }
        out
    }

    /// Every start node of the first path, then the rest of the clause.
    fn paths(
        &self,
        paths: &[PathPattern],
        where_clause: Option<&Expr>,
        row: &Row,
        used: &mut Vec<RelId>,
        out: &mut Vec<Row>,
    ) {
        let Some(path) = paths.first() else {
            let holds = match where_clause {
                Some(w) => eval(&self.ctx, row, w).unwrap().is_truthy(),
                None => true,
            };
            if holds {
                out.push(row.clone());
            }
            return;
        };
        for &n in &self.nodes {
            if let Some(row) = self.place(row, n, &path.start) {
                self.segments(paths, 0, n, where_clause, &row, used, out);
            }
        }
    }

    /// Segment `seg` of the first path from node `at`: every relationship
    /// (single hop) or every trail (variable length).
    #[allow(clippy::too_many_arguments)]
    fn segments(
        &self,
        paths: &[PathPattern],
        seg: usize,
        at: NodeId,
        where_clause: Option<&Expr>,
        row: &Row,
        used: &mut Vec<RelId>,
        out: &mut Vec<Row>,
    ) {
        let Some((rel, node)) = paths[0].segments.get(seg) else {
            return self.paths(&paths[1..], where_clause, row, used, out);
        };
        let next = |row: &Row, end: NodeId, used: &mut Vec<RelId>, out: &mut Vec<Row>| {
            if let Some(row) = self.place(row, end, node) {
                self.segments(paths, seg + 1, end, where_clause, &row, used, out);
            }
        };
        match rel.hops {
            None => {
                for &(r, s, d) in &self.rels {
                    let Some(end) = self.step(rel, r, s, d, at, row, used) else {
                        continue;
                    };
                    if let Some(row) = bind(row, &rel.var, Value::Rel(r)) {
                        used.push(r);
                        next(&row, end, used, out);
                        used.pop();
                    }
                }
            }
            Some((min, max)) => {
                let mut trail = Vec::new();
                self.trails(
                    rel,
                    (min, max),
                    at,
                    row,
                    used,
                    &mut trail,
                    &mut |end, trail, used| {
                        let list = Value::List(trail.iter().map(|&r| Value::Rel(r)).collect());
                        if let Some(row) = bind(row, &rel.var, list) {
                            next(&row, end, used, out);
                        }
                    },
                );
            }
        }
    }

    /// Every relationship-unique trail from `at` whose length is within
    /// `(min, max)`, handed to `each` with its end node.
    #[allow(clippy::too_many_arguments)]
    fn trails(
        &self,
        rel: &RelPattern,
        (min, max): (u32, Option<u32>),
        at: NodeId,
        row: &Row,
        used: &mut Vec<RelId>,
        trail: &mut Vec<RelId>,
        each: &mut Trail<'_>,
    ) {
        let len = trail.len() as u32;
        if len >= min {
            each(at, trail, used);
        }
        if max.is_some_and(|max| len >= max) {
            return;
        }
        for &(r, s, d) in &self.rels {
            if let Some(end) = self.step(rel, r, s, d, at, row, used) {
                used.push(r);
                trail.push(r);
                self.trails(rel, (min, max), end, row, used, trail, each);
                trail.pop();
                used.pop();
            }
        }
    }

    /// The far end of relationship `r` (from `s` to `d`) taken from `at`
    /// as `rel` demands: direction, type and inline properties, not yet
    /// used in the clause.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        rel: &RelPattern,
        r: RelId,
        s: NodeId,
        d: NodeId,
        at: NodeId,
        row: &Row,
        used: &[RelId],
    ) -> Option<NodeId> {
        let end = match rel.direction {
            Direction::Out => (s == at).then_some(d)?,
            Direction::In => (d == at).then_some(s)?,
            Direction::Both if s == at => d,
            Direction::Both => (d == at).then_some(s)?,
        };
        let view = self.ctx.view;
        let rec = view.rel(r).expect("a live relationship");
        let typed = rel.types.is_empty() || rel.types.contains(&rec.rel_type);
        let props = rel.props.iter().all(|(k, e)| {
            let want = eval(&self.ctx, row, e).unwrap();
            rec.props.get(k).unwrap_or(&Value::Null).eq3(&want) == Some(true)
        });
        (typed && props && !used.contains(&r)).then_some(end)
    }

    /// `row` with node `n` in position `np`, if its labels (stored, or the
    /// nodes a bound transition variable lists) and inline properties hold.
    fn place(&self, row: &Row, n: NodeId, np: &NodePattern) -> Option<Row> {
        let view = self.ctx.view;
        let labelled = np.labels.iter().all(|l| match row.get(l) {
            Some(Value::List(items)) => items.contains(&Value::Node(n)),
            Some(other) => panic!("label {l} bound to {other:?}"),
            None => view.node(n).is_some_and(|n| n.has_label(l)),
        });
        let props = np.props.iter().all(|(k, e)| {
            let want = eval(&self.ctx, row, e).unwrap();
            view.node(n)
                .and_then(|n| n.props.get(k))
                .cloned()
                .unwrap_or(Value::Null)
                .eq3(&want)
                == Some(true)
        });
        if !(labelled && props) {
            return None;
        }
        bind(row, &np.var, Value::Node(n))
    }
}

/// `row` with `var` bound to `value`; a variable already bound must equal
/// it.
fn bind(row: &Row, var: &Option<String>, value: Value) -> Option<Row> {
    let Some(var) = var else {
        return Some(row.clone());
    };
    match row.get(var) {
        Some(bound) => (bound == &value).then(|| row.clone()),
        None => {
            let mut row = row.clone();
            row.set(var, value);
            Some(row)
        }
    }
}

fn sorted(rows: &[Row]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    keys.sort();
    keys
}

fn run(g: &Graph, text: &str, seeds: &[Row], mode: MatchMode) -> pg_cypher::QueryOutput {
    let query = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let params = Params::new();
    Executor::new(Target::Read(g), &params, 0)
        .with_match_mode(mode)
        .run(&query, seeds.to_vec())
        .unwrap_or_else(|e| panic!("{text}: {e}"))
}

fn fuzz_cases() -> u32 {
    std::env::var("PG_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

fn path_strategy() -> impl Strategy<Value = PathSpec> {
    let node = || (0u8..6, 0u8..8, 0u8..7);
    let rel = (0u8..2, 0u8..5, 0u8..3, 0u8..8, 0u8..7);
    (node(), proptest::collection::vec((rel, node()), 0..4))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: fuzz_cases() })]

    #[test]
    fn the_matcher_agrees_with_brute_force(
        nodes in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4), 1..9),
        rels in proptest::collection::vec((0usize..8, 0usize..8, 0u8..2, 0u8..4), 0..13),
        paths in proptest::collection::vec(path_strategy(), 1..3),
        filter in (0u8..12, 0usize..4, 0usize..4, 0u8..3),
        seeds in proptest::collection::vec(
            (0u8..3, 0u8..3, 0u8..5, (0usize..8, 0usize..8, 0usize..12, 0usize..12)),
            1..4,
        ),
        optional in 0u8..4,
    ) {
        let plain = build(&nodes, &rels, false);
        let indexed = build(&nodes, &rels, true);
        let (node_ids, rel_ids) = (plain.all_node_ids(), plain.all_rel_ids());
        prop_assert_eq!(&node_ids, &indexed.all_node_ids());
        let seeds: Vec<Row> = seeds.iter().map(|s| seed_row(s, &node_ids, &rel_ids)).collect();

        let (pattern, node_vars, rel_vars) = patterns_text(&paths);
        let filter = where_text(&filter, &node_vars, &rel_vars);
        let filter = filter.map(|w| format!(" WHERE {w}")).unwrap_or_default();
        let optional = if optional == 0 { "OPTIONAL " } else { "" };
        let text = format!("{optional}MATCH {pattern}{filter}");
        let clause = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}")).clauses.remove(0);

        let params = Params::new();
        let oracle = Oracle::new(&plain, &params);
        let per_seed: Vec<Vec<Row>> = seeds.iter().map(|s| oracle.rows(s, &clause)).collect();
        let expected = sorted(&per_seed.concat());
        let exists_text = format!("RETURN EXISTS {{ MATCH {pattern}{filter} }} AS e");
        let exists: Vec<Vec<Value>> = per_seed.iter().map(|rows| vec![Value::Bool(!rows.is_empty())]).collect();

        for (twin, g) in [("plain", &plain), ("indexed", &indexed)] {
            for mode in [MatchMode::Batched, MatchMode::Reference] {
                let got = sorted(&run(g, &text, &seeds, mode).bindings);
                prop_assert_eq!(
                    &got,
                    &expected,
                    "{} on the {} twin under {:?}\nseeds {:?}\nnodes {:?}\nrels {:?}",
                    text, twin, mode, seeds, nodes, rels
                );
            }
            if optional.is_empty() {
                let got = run(g, &exists_text, &seeds, MatchMode::Batched).rows;
                prop_assert_eq!(
                    &got,
                    &exists,
                    "{} on the {} twin\nseeds {:?}\nnodes {:?}\nrels {:?}",
                    exists_text, twin, seeds, nodes, rels
                );
            }
        }
    }
}
