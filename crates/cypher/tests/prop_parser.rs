//! Property-based tests for the parser/unparser pair: ASTs generated
//! structurally must survive unparse → parse unchanged, and evaluation of
//! generated arithmetic expressions must agree with a reference
//! interpreter. The second half holds the AST walk (`ast::visit`) to its
//! algebra over generated clause-level queries: renaming is invertible and
//! reaches every name, free variables commute with renaming, and
//! `is_updating` / `has_aggregate` do not see names at all. The last part
//! feeds both text parsers hostile input — arbitrary text, token soup, and
//! valid queries truncated at every character or with a token doubled —
//! and holds them to returning a value or a typed error, never a panic.

use pg_cypher::ast::{
    BinOp, Clause, Expr, NodePattern, PathPattern, ProjItem, Projection, Query, RelPattern,
    RemoveItem, SetItem,
};
use pg_cypher::{parse_expression, parse_query, rename_vars, unparse_expr, unparse_query};
use pg_graph::{Direction, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Generate small arithmetic/boolean expressions (no graph access).
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..50).prop_map(|i| Expr::Literal(Value::Int(i))), // `-1` parses as Neg(1): keep literals non-negative
        prop_oneof![Just(true), Just(false)].prop_map(|b| Expr::Literal(Value::Bool(b))),
        "[a-z]{1,6}".prop_map(|s| Expr::Literal(Value::Str(s))),
        Just(Expr::Literal(Value::Null)),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Eq),
                    Just(BinOp::Neq),
                    Just(BinOp::Lt),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                ]
            )
                .prop_map(|(a, b, op)| Expr::Binary(op, Box::new(a), Box::new(b))),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Expr::ListLit),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| Expr::Case {
                operand: None,
                whens: vec![(Expr::Binary(BinOp::Eq, Box::new(c.clone()), Box::new(c)), t,)],
                else_: Some(Box::new(e)),
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn expr_unparse_reparse_round_trips(e in expr_strategy()) {
        let text = unparse_expr(&e);
        let back = parse_expression(&text)
            .map_err(|err| TestCaseError::fail(format!("`{text}`: {err}")))?;
        prop_assert_eq!(back, e, "text was `{}`", text);
    }

    #[test]
    fn query_round_trips_with_generated_filters(e in expr_strategy(), label in "[A-Z][a-z]{1,6}") {
        let src = format!(
            "MATCH (n:{label}) WHERE {} RETURN n.x AS x ORDER BY x LIMIT 3",
            unparse_expr(&e)
        );
        let q1 = parse_query(&src)
            .map_err(|err| TestCaseError::fail(format!("`{src}`: {err}")))?;
        let text = unparse_query(&q1);
        let q2 = parse_query(&text)
            .map_err(|err| TestCaseError::fail(format!("re-parse `{text}`: {err}")))?;
        prop_assert_eq!(q1, q2);
    }

    #[test]
    fn constant_arithmetic_matches_reference(a in -100i64..100, b in -100i64..100, c in 1i64..50) {
        // (a + b) * c - a  computed by the engine vs Rust
        let src = format!("RETURN ({a} + {b}) * {c} - {a} AS v");
        let mut g = pg_graph::Graph::new();
        let out = pg_cypher::run_query(&mut g, &src, &pg_cypher::Params::new(), 0).unwrap();
        let expect = (a + b) * c - a;
        prop_assert_eq!(out.single(), Some(&Value::Int(expect)));
    }

    #[test]
    fn comparison_chains_respect_total_order(xs in prop::collection::vec(mixed_value(), 1..8)) {
        // ORDER BY over UNWIND: a permutation of the input, ascending in
        // the one value order.
        let got = column(&format!("UNWIND {} AS x RETURN x ORDER BY x", list_lit(&xs)));
        let mut want: Vec<String> = xs.iter().map(|v| format!("{v:?}")).collect();
        let mut have: Vec<String> = got.iter().map(|v| format!("{v:?}")).collect();
        want.sort();
        have.sort();
        prop_assert_eq!(have, want, "not a permutation: {:?}", got);
        for (i, a) in got.iter().enumerate() {
            for b in &got[i + 1..] {
                prop_assert!(a.cmp_order(b).is_le(), "{:?} before {:?} in {:?}", a, b, got);
            }
        }
    }

    #[test]
    fn distinct_collect_matches_set_semantics(xs in prop::collection::vec(mixed_value(), 0..20)) {
        // Every deduplication equals the linear twin, in the same order.
        let unwind = format!("UNWIND {} AS x", list_lit(&xs));
        let non_null: Vec<Value> = xs.iter().filter(|v| !v.is_null()).cloned().collect();
        let (all, present) = (first_seen(&xs), first_seen(&non_null));
        let keys = |groups: &[(Value, i64)]| debug(groups.iter().map(|(v, _)| v.clone()));
        let got = column(&format!("{unwind} RETURN DISTINCT x"));
        prop_assert_eq!(debug(got), keys(&all));
        let got = column(&format!("{unwind} RETURN count(DISTINCT x) AS n"));
        prop_assert_eq!(got, vec![Value::Int(present.len() as i64)]);
        let got = column(&format!("{unwind} RETURN collect(DISTINCT x) AS c"));
        prop_assert_eq!(debug(got), debug([Value::list(present.iter().map(|g| g.0.clone()))]));
        let out = pg_cypher::run_query(
            &mut pg_graph::Graph::new(),
            &format!("{unwind} RETURN x, count(*) AS n"),
            &pg_cypher::Params::new(),
            0,
        )
        .unwrap();
        let groups = out.rows.into_iter().map(|r| (r[0].clone(), r[1].as_i64().unwrap()));
        prop_assert_eq!(format!("{:?}", groups.collect::<Vec<_>>()), format!("{all:?}"));
    }
}

/// Mixed literals where a partial or lossy value order shows: integers
/// beside the floats they round to (±(2⁵³ ± 1), `i64::MIN`/`MAX`),
/// integral and fractional floats, signed zero, infinities and `NaN`,
/// strings, booleans and `null`; and one-level lists and maps of these.
fn mixed_value() -> BoxedStrategy<Value> {
    let two53 = 1i64 << 53;
    let ints = [
        two53 - 1,
        two53,
        two53 + 1,
        -two53 - 1,
        -two53 + 1,
        i64::MIN,
        i64::MAX,
    ];
    let floats = [
        0.0,
        -0.0,
        two53 as f64,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    // 2⁵³ + 1 and 2⁵³ both round to 2⁵³.0: three values a lossy order
    // ties pairwise but not transitively, drawn often.
    let near = [
        Value::Int(two53),
        Value::Int(two53 + 1),
        Value::Float(two53 as f64),
    ];
    let near = (0..near.len()).prop_map(move |i| near[i].clone()).boxed();
    let scalar = prop_oneof![
        near.clone(),
        near,
        (-2i64..3).prop_map(Value::Int),
        (0..ints.len()).prop_map(move |i| Value::Int(ints[i])),
        (-6i64..7).prop_map(|q| Value::Float(q as f64 / 2.0)),
        (0..floats.len()).prop_map(move |i| Value::Float(floats[i])),
        "[ab]{0,1}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Null),
    ]
    .boxed();
    prop_oneof![
        scalar.clone(),
        scalar.clone(),
        prop::collection::vec(scalar.clone(), 0..3).prop_map(Value::List),
        prop::collection::vec(("[ab]", scalar), 0..3).prop_map(Value::map),
    ]
    .boxed()
}

/// A Cypher expression that evaluates to `v`.
fn lit(v: &Value) -> String {
    match v {
        Value::Int(i64::MIN) => "(-9223372036854775807 - 1)".to_string(),
        Value::Float(f) if f.is_nan() => "0.0/0.0".to_string(),
        Value::Float(f) if f.is_infinite() => format!("{}1.0/0.0", if *f < 0.0 { "-" } else { "" }),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("'{s}'"),
        Value::List(items) => list_lit(items),
        Value::Map(m) => {
            let entries: Vec<String> = m.iter().map(|(k, v)| format!("{k}: {}", lit(v))).collect();
            format!("{{{}}}", entries.join(", "))
        }
        other => other.to_string(),
    }
}

fn list_lit(items: &[Value]) -> String {
    format!("[{}]", items.iter().map(lit).collect::<Vec<_>>().join(", "))
}

/// The first column of a query's rows.
fn column(src: &str) -> Vec<Value> {
    let mut g = pg_graph::Graph::new();
    let out = pg_cypher::run_query(&mut g, src, &pg_cypher::Params::new(), 0)
        .unwrap_or_else(|e| panic!("{src}: {e}"));
    out.rows.into_iter().map(|mut r| r.remove(0)).collect()
}

/// Values compared by their `Debug` text: `NaN` equals itself and `-0.0`
/// differs from `0.0`, so first-seen representatives are checked exactly.
fn debug(vs: impl IntoIterator<Item = Value>) -> Vec<String> {
    vs.into_iter().map(|v| format!("{v:?}")).collect()
}

/// The linear twin of every deduplication: first-seen groups under
/// `cmp_order(..).is_eq()`, with their sizes — the shape of the scans the
/// ordered keys replaced.
fn first_seen(xs: &[Value]) -> Vec<(Value, i64)> {
    let mut groups: Vec<(Value, i64)> = Vec::new();
    for x in xs {
        match groups.iter_mut().find(|(g, _)| g.cmp_order(x).is_eq()) {
            Some((_, n)) => *n += 1,
            None => groups.push((x.clone(), 1)),
        }
    }
    groups
}

// ---------------------------------------------------------------------
// Clause-level queries for the walk's algebra. Variables come from
// `VARS` (lowercase, one letter); labels, types, property keys and
// functions from disjoint pools, so a renaming of `VARS` can be checked
// on the unparsed text alone.
// ---------------------------------------------------------------------

const VARS: [&str; 5] = ["a", "b", "n", "m", "x"];

fn pick(pool: &'static [&'static str]) -> BoxedStrategy<String> {
    (0..pool.len())
        .prop_map(move |i| pool[i].to_string())
        .boxed()
}

fn var() -> BoxedStrategy<String> {
    pick(&VARS)
}

fn opt<T: Clone + 'static>(s: BoxedStrategy<T>) -> BoxedStrategy<Option<T>> {
    prop_oneof![Just(None), s.prop_map(Some)].boxed()
}

/// Non-recursive expressions: pattern property values and `LIMIT`s.
fn atom() -> BoxedStrategy<Expr> {
    prop_oneof![
        var().prop_map(Expr::Var),
        (0i64..9).prop_map(|i| Expr::Literal(Value::Int(i))),
        (var(), pick(&["k", "w", "name"])).prop_map(|(v, k)| Expr::Prop(Box::new(Expr::Var(v)), k)),
    ]
    .boxed()
}

fn node_pattern() -> BoxedStrategy<NodePattern> {
    let props = prop::collection::vec((pick(&["k", "w"]), atom()), 0..2);
    let labels = prop::collection::vec(pick(&["L", "Person", "Q"]), 0..3);
    (opt(var()), labels, props)
        .prop_map(|(var, labels, props)| NodePattern { var, labels, props })
        .boxed()
}

fn path_pattern() -> BoxedStrategy<PathPattern> {
    let direction = prop_oneof![
        Just(Direction::Out),
        Just(Direction::In),
        Just(Direction::Both)
    ];
    let types = prop::collection::vec(pick(&["R", "T"]), 0..2);
    let props = prop::collection::vec((pick(&["k", "w"]), atom()), 0..2);
    let rel = (opt(var()), types, props, direction).prop_map(|(var, types, props, direction)| {
        RelPattern {
            var,
            types,
            props,
            direction,
            hops: None,
        }
    });
    (
        node_pattern(),
        prop::collection::vec((rel, node_pattern()), 0..3),
    )
        .prop_map(|(start, segments)| PathPattern { start, segments })
        .boxed()
}

/// Expressions with `EXISTS`, list comprehensions, label predicates,
/// `CASE` and (aggregate and scalar) function calls.
fn gen_expr() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![atom(), atom(), Just(Expr::CountStar)];
    leaf.prop_recursive(3, 24, 3, |inner| {
        let boxed = |e: Expr| Some(Box::new(e));
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Binary(
                BinOp::And,
                Box::new(a),
                Box::new(b)
            )),
            (
                pick(&["size", "count", "collect", "toUpper"]),
                inner.clone()
            )
                .prop_map(|(name, arg)| Expr::Func {
                    name,
                    args: vec![arg],
                    distinct: false,
                }),
            (var(), inner.clone(), inner.clone(), inner.clone()).prop_map(
                move |(var, list, filter, map)| Expr::ListComp {
                    var,
                    list: Box::new(list),
                    filter: boxed(filter),
                    map: boxed(map),
                }
            ),
            (path_pattern(), opt(inner.clone()))
                .prop_map(|(p, w)| Expr::ExistsSubquery(vec![p], w.map(Box::new))),
            (inner.clone(), pick(&["L", "Q"]))
                .prop_map(|(e, l)| Expr::HasLabel(Box::new(e), vec![l])),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(move |(c, t, e)| Expr::Case {
                operand: boxed(c),
                whens: vec![(t.clone(), t)],
                else_: boxed(e),
            }),
            prop::collection::vec(inner, 0..3).prop_map(Expr::ListLit),
        ]
    })
}

fn projection() -> BoxedStrategy<Projection> {
    let items = prop::collection::vec((gen_expr(), opt(var())), 1..3);
    let order_by = prop::collection::vec((gen_expr(), any::<bool>()), 0..2);
    let limit = opt((0i64..5).prop_map(|i| Expr::Literal(Value::Int(i))).boxed());
    (any::<bool>(), items, order_by, limit, opt(gen_expr()))
        .prop_map(
            |(distinct, items, order_by, limit, where_clause)| Projection {
                distinct,
                items: items
                    .into_iter()
                    .map(|(expr, alias)| ProjItem { expr, alias })
                    .collect(),
                star: false,
                order_by,
                skip: None,
                limit,
                where_clause,
            },
        )
        .boxed()
}

fn set_item() -> BoxedStrategy<SetItem> {
    prop_oneof![
        (var(), pick(&["k", "w"]), gen_expr()).prop_map(|(v, key, value)| SetItem::Prop {
            target: Expr::Var(v),
            key,
            value,
        }),
        (var(), prop::collection::vec(pick(&["L", "Q"]), 1..3))
            .prop_map(|(var, labels)| SetItem::Labels { var, labels }),
        (var(), gen_expr()).prop_map(|(var, value)| SetItem::ReplaceProps { var, value }),
        (var(), gen_expr()).prop_map(|(var, value)| SetItem::MergeProps { var, value }),
    ]
    .boxed()
}

fn remove_item() -> BoxedStrategy<RemoveItem> {
    prop_oneof![
        (var(), pick(&["k", "w"])).prop_map(|(v, key)| RemoveItem::Prop {
            target: Expr::Var(v),
            key,
        }),
        (var(), prop::collection::vec(pick(&["L", "Q"]), 1..3))
            .prop_map(|(var, labels)| RemoveItem::Labels { var, labels }),
    ]
    .boxed()
}

/// Every clause kind but `FOREACH`.
fn simple_clause() -> BoxedStrategy<Clause> {
    let paths = || prop::collection::vec(path_pattern(), 1..3);
    let set_items = |len| prop::collection::vec(set_item(), len);
    prop_oneof![
        (any::<bool>(), paths(), opt(gen_expr())).prop_map(|(optional, patterns, w)| {
            Clause::Match {
                optional,
                patterns,
                where_clause: w,
            }
        }),
        (gen_expr(), var()).prop_map(|(expr, alias)| Clause::Unwind { expr, alias }),
        projection().prop_map(Clause::With),
        projection().prop_map(Clause::Return),
        paths().prop_map(|patterns| Clause::Create { patterns }),
        (path_pattern(), set_items(0..2), set_items(0..2)).prop_map(
            |(pattern, on_create, on_match)| Clause::Merge {
                pattern,
                on_create,
                on_match,
            }
        ),
        set_items(1..3).prop_map(|items| Clause::Set { items }),
        prop::collection::vec(remove_item(), 1..3).prop_map(|items| Clause::Remove { items }),
        (
            any::<bool>(),
            prop::collection::vec(var().prop_map(Expr::Var), 1..3)
        )
            .prop_map(|(detach, exprs)| Clause::Delete { detach, exprs }),
        gen_expr().prop_map(Clause::Where),
    ]
    .boxed()
}

fn gen_query() -> BoxedStrategy<Query> {
    let foreach = (
        var(),
        gen_expr(),
        prop::collection::vec(simple_clause(), 1..3),
    )
        .prop_map(|(var, list, body)| Clause::Foreach { var, list, body });
    let clause = prop_oneof![simple_clause(), simple_clause(), foreach];
    prop::collection::vec(clause, 1..5)
        .prop_map(|clauses| Query { clauses })
        .boxed()
}

/// The bijection `VARS` → fresh names, and its inverse.
fn fresh_renaming() -> (BTreeMap<String, String>, BTreeMap<String, String>) {
    let there: BTreeMap<String, String> = VARS
        .iter()
        .map(|v| (v.to_string(), format!("v_{v}")))
        .collect();
    let back = there.iter().map(|(k, v)| (v.clone(), k.clone())).collect();
    (there, back)
}

fn renamed_expr(e: &Expr, renames: &BTreeMap<String, String>) -> Expr {
    let q = rename_vars(
        &Query {
            clauses: vec![Clause::Where(e.clone())],
        },
        renames,
    );
    match q.clauses.into_iter().next() {
        Some(Clause::Where(e)) => e,
        other => panic!("renaming changed the clause: {other:?}"),
    }
}

/// The identifier-like words of `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn renaming_by_a_bijection_inverts_and_reaches_every_name(q in gen_query()) {
        let (there, back) = fresh_renaming();
        let renamed = rename_vars(&q, &there);
        prop_assert_eq!(rename_vars(&renamed, &back), q.clone());
        // The unparser is an independent witness: no old name survives.
        let text = unparse_query(&renamed);
        let stale: Vec<&str> = words(&text).filter(|w| VARS.contains(w)).collect();
        prop_assert!(stale.is_empty(), "{stale:?} survive in `{text}`");
    }

    #[test]
    fn free_variables_commute_with_renaming(e in gen_expr()) {
        let (there, _) = fresh_renaming();
        let mut before = Vec::new();
        e.collect_vars(&mut before);
        let mut after = Vec::new();
        renamed_expr(&e, &there).collect_vars(&mut after);
        let mapped: Vec<String> = before.iter().map(|v| there[v].clone()).collect();
        prop_assert_eq!(after, mapped, "{}", unparse_expr(&e));
    }

    #[test]
    fn updating_and_aggregation_ignore_names(q in gen_query(), e in gen_expr()) {
        let (there, _) = fresh_renaming();
        let renamed = rename_vars(&q, &there);
        prop_assert_eq!(q.is_updating(), renamed.is_updating());
        prop_assert_eq!(e.has_aggregate(), renamed_expr(&e, &there).has_aggregate());
        // and `is_updating` agrees with the updating keywords of the text
        let text = unparse_query(&q);
        let keyword = |w: &str| ["CREATE", "MERGE", "DELETE", "SET", "REMOVE"].contains(&w);
        prop_assert_eq!(q.is_updating(), words(&text).any(keyword), "{}", text);
    }
}

// ---------------------------------------------------------------------
// Hostile input: whatever the text, the parsers return `Ok` or a typed
// error and never panic.
// ---------------------------------------------------------------------

/// Valid texts the mutations start from: every clause kind, the paper's
/// condition and action shapes, and the lexer's literal forms.
const VALID_QUERIES: [&str; 9] = [
    "MATCH (a:A {k: 1})-[r:R|S*1..3]->(b)<-[:T]-(c) WHERE a.k >= $p AND b.s STARTS WITH 'x' \
     RETURN a.k AS k, count(DISTINCT b) AS n ORDER BY k DESC SKIP 1 LIMIT 5",
    "MATCH (s:Sequence)-[NEW]-(l:Lineage) WHERE EXISTS { MATCH (:CriticalEffect)-[:Risk]-(:Mutation)-[:FoundIn]-(s) } RETURN l",
    "MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'}) \
     WITH count(DISTINCT p) AS icuPat WHERE icuPat > 50 RETURN icuPat",
    "OPTIONAL MATCH (n) WITH n, [x IN range(0, 3) WHERE x % 2 = 0 | x * 1.5e1] AS xs UNWIND xs AS x RETURN *",
    "MERGE (a:U {id: 1})-[:F]->(b:U {id: 2}) ON CREATE SET a.c = 1 ON MATCH SET a += {c: a.c + 1}, b:Seen",
    "MATCH (n:NEWNODES) FOREACH (i IN [1, 2] | CREATE (:Alert {x: n.id, t: datetime(), s: \"q\\\"\"})) \
     REMOVE n.tmp, n:Tmp DETACH DELETE n",
    "MATCH (c:City) WITH c ORDER BY c.distance LIMIT 1 SET c.near = CASE WHEN c.x IS NULL THEN -1 ELSE c.x[0..2] END",
    "UNWIND [{a: [1, null, true]}, `odd name`] AS m RETURN m.a[-1] <> 2 OR NOT exists(m.b) AS v",
    "MATCH (n:NEWNODES) WHERE n.x > 1 ABORT 'too big: ' + toString(n.x)",
];

/// Tokens of the query language and the lexer's edge cases: unterminated
/// strings, comments, non-ASCII, a huge integer, every bracket.
const SOUP: [&str; 40] = [
    "MATCH",
    "OPTIONAL",
    "WHERE",
    "RETURN",
    "WITH",
    "UNWIND",
    "AS",
    "CREATE",
    "MERGE",
    "ON",
    "SET",
    "DELETE",
    "EXISTS",
    "CASE",
    "WHEN",
    "END",
    "ORDER",
    "BY",
    "LIMIT",
    "n",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "-",
    "->",
    "<-",
    ":",
    "|",
    "*",
    "..",
    ",",
    ".",
    "'",
    "\"x",
    "99999999999999999999",
    "é→",
    "//",
];

/// `text` with its `at`-th whitespace-separated token written twice.
fn with_token_duplicated(text: &str, at: usize) -> String {
    let tokens: Vec<&str> = text.split(' ').collect();
    let at = at % tokens.len();
    let mut out: Vec<&str> = tokens[..=at].to_vec();
    out.extend(&tokens[at..]);
    out.join(" ")
}

/// Both text parsers on `text`: each returns a value or an error whose
/// message renders.
fn parse_both(text: &str) {
    if let Err(e) = parse_query(text) {
        let _ = e.to_string();
    }
    if let Err(e) = parse_expression(text) {
        let _ = e.to_string();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsers_never_panic_on_arbitrary_text(text in "[ -~é→\t\n]{0,48}") {
        parse_both(&text);
    }

    #[test]
    fn parsers_never_panic_on_token_soup(picks in prop::collection::vec(0usize..40, 0..40)) {
        let text: Vec<&str> = picks.iter().map(|&i| SOUP[i]).collect();
        parse_both(&text.join(" "));
        parse_both(&text.concat());
    }

    #[test]
    fn parsers_never_panic_on_mutated_valid_text(pick in 0usize..9, at in 0usize..64) {
        let valid = VALID_QUERIES[pick];
        if let Err(e) = parse_query(valid) {
            return Err(TestCaseError::fail(format!("`{valid}`: {e}")));
        }
        for text in [valid.to_string(), with_token_duplicated(valid, at)] {
            for (cut, _) in text.char_indices() {
                parse_both(&text[..cut]);
            }
            parse_both(&text);
        }
    }
}
