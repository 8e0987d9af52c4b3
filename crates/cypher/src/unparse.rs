//! AST → source text rendering (unparser).
//!
//! Used by the syntax-directed translators (PG-Trigger → APOC, PG-Trigger →
//! Memgraph; paper Figures 2 and 3) to splice trigger conditions and
//! statements into the target systems' trigger bodies, and by tests to check
//! parse/unparse round-trips.

use crate::ast::visit;
use crate::ast::*;
use pg_graph::{Direction, Value};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Render a query as Cypher text.
pub fn unparse_query(q: &Query) -> String {
    joined(&q.clauses, " ", unparse_clause)
}

/// `items` rendered by `f`, separated by `sep`.
fn joined<T>(items: &[T], sep: &str, f: impl FnMut(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(sep)
}

/// Render a single clause.
pub fn unparse_clause(c: &Clause) -> String {
    match c {
        Clause::Match {
            optional,
            patterns,
            where_clause,
        } => {
            let mut s = String::new();
            if *optional {
                s.push_str("OPTIONAL ");
            }
            s.push_str("MATCH ");
            s.push_str(&joined(patterns, ", ", unparse_pattern));
            if let Some(w) = where_clause {
                write!(s, " WHERE {}", unparse_expr(w)).unwrap();
            }
            s
        }
        Clause::Where(e) => format!("WHERE {}", unparse_expr(e)),
        Clause::Unwind { expr, alias } => {
            format!("UNWIND {} AS {}", unparse_expr(expr), ident(alias))
        }
        Clause::With(p) => format!("WITH {}", unparse_projection(p)),
        Clause::Return(p) => format!("RETURN {}", unparse_projection(p)),
        Clause::Create { patterns } => {
            format!("CREATE {}", joined(patterns, ", ", unparse_pattern))
        }
        Clause::Merge {
            pattern,
            on_create,
            on_match,
        } => {
            let mut s = format!("MERGE {}", unparse_pattern(pattern));
            if !on_create.is_empty() {
                write!(s, " ON CREATE SET {}", unparse_set_items(on_create)).unwrap();
            }
            if !on_match.is_empty() {
                write!(s, " ON MATCH SET {}", unparse_set_items(on_match)).unwrap();
            }
            s
        }
        Clause::Delete { detach, exprs } => format!(
            "{}DELETE {}",
            if *detach { "DETACH " } else { "" },
            joined(exprs, ", ", unparse_expr)
        ),
        Clause::Set { items } => format!("SET {}", unparse_set_items(items)),
        Clause::Remove { items } => format!(
            "REMOVE {}",
            joined(items, ", ", |i| match i {
                RemoveItem::Prop { target, key } => {
                    format!("{}.{}", unparse_expr(target), ident(key))
                }
                RemoveItem::Labels { var, labels } =>
                    format!("{}{}", ident(var), label_list(labels)),
            })
        ),
        Clause::Foreach { var, list, body } => format!(
            "FOREACH ({} IN {} | {})",
            ident(var),
            unparse_expr(list),
            joined(body, " ", unparse_clause)
        ),
        Clause::Abort(e) => format!("ABORT {}", unparse_expr(e)),
    }
}

fn unparse_projection(p: &Projection) -> String {
    let mut s = String::new();
    if p.distinct {
        s.push_str("DISTINCT ");
    }
    let mut items: Vec<String> = Vec::new();
    if p.star {
        items.push("*".to_string());
    }
    for i in &p.items {
        match &i.alias {
            Some(a) => items.push(format!("{} AS {}", unparse_expr(&i.expr), ident(a))),
            None => items.push(unparse_expr(&i.expr)),
        }
    }
    s.push_str(&items.join(", "));
    if !p.order_by.is_empty() {
        s.push_str(" ORDER BY ");
        s.push_str(&joined(&p.order_by, ", ", |(e, asc)| {
            format!("{}{}", unparse_expr(e), if *asc { "" } else { " DESC" })
        }));
    }
    if let Some(sk) = &p.skip {
        write!(s, " SKIP {}", unparse_expr(sk)).unwrap();
    }
    if let Some(l) = &p.limit {
        write!(s, " LIMIT {}", unparse_expr(l)).unwrap();
    }
    if let Some(w) = &p.where_clause {
        write!(s, " WHERE {}", unparse_expr(w)).unwrap();
    }
    s
}

fn unparse_set_items(items: &[SetItem]) -> String {
    joined(items, ", ", |i| match i {
        SetItem::Prop { target, key, value } => {
            format!(
                "{}.{} = {}",
                unparse_expr(target),
                ident(key),
                unparse_expr(value)
            )
        }
        SetItem::Labels { var, labels } => format!("{}{}", ident(var), label_list(labels)),
        SetItem::ReplaceProps { var, value } => {
            format!("{} = {}", ident(var), unparse_expr(value))
        }
        SetItem::MergeProps { var, value } => {
            format!("{} += {}", ident(var), unparse_expr(value))
        }
    })
}

/// `:L1:L2`
fn label_list(labels: &[String]) -> String {
    labels.iter().map(|l| format!(":{}", ident(l))).collect()
}

/// Render a path pattern.
pub fn unparse_pattern(p: &PathPattern) -> String {
    let mut s = unparse_node_pattern(&p.start);
    for (r, n) in &p.segments {
        s.push_str(&unparse_rel_pattern(r));
        s.push_str(&unparse_node_pattern(n));
    }
    s
}

fn unparse_node_pattern(n: &NodePattern) -> String {
    let mut s = String::from("(");
    if let Some(v) = &n.var {
        s.push_str(&ident(v));
    }
    for l in &n.labels {
        write!(s, ":{}", ident(l)).unwrap();
    }
    if !n.props.is_empty() {
        write!(s, " {{{}}}", unparse_prop_map(&n.props)).unwrap();
    }
    s.push(')');
    s
}

fn unparse_rel_pattern(r: &RelPattern) -> String {
    let mut inner = String::new();
    if let Some(v) = &r.var {
        inner.push_str(&ident(v));
    }
    if !r.types.is_empty() {
        write!(inner, ":{}", joined(&r.types, "|", |t| ident(t))).unwrap();
    }
    if let Some((min, max)) = r.hops {
        match max {
            Some(max) if max == min => write!(inner, "*{min}").unwrap(),
            Some(max) => write!(inner, "*{min}..{max}").unwrap(),
            None => {
                if min == 1 {
                    inner.push('*');
                } else {
                    write!(inner, "*{min}..").unwrap();
                }
            }
        }
    }
    if !r.props.is_empty() {
        write!(inner, " {{{}}}", unparse_prop_map(&r.props)).unwrap();
    }
    let body = if inner.is_empty() {
        String::new()
    } else {
        format!("[{inner}]")
    };
    match r.direction {
        Direction::Out => format!("-{body}->"),
        Direction::In => format!("<-{body}-"),
        Direction::Both => format!("-{body}-"),
    }
}

fn unparse_prop_map(props: &[(String, Expr)]) -> String {
    joined(props, ", ", |(k, v)| {
        format!("{}: {}", ident(k), unparse_expr(v))
    })
}

fn ident(name: &str) -> String {
    let plain = !name.is_empty()
        && name
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if plain {
        name.to_string()
    } else {
        format!("`{name}`")
    }
}

fn unparse_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\\', "\\\\").replace('\'', "\\'")),
        Value::Null => "null".to_string(),
        Value::List(items) => format!("[{}]", joined(items, ", ", unparse_value)),
        Value::Map(m) => format!(
            "{{{}}}",
            m.iter()
                .map(|(k, v)| format!("{}: {}", ident(k), unparse_value(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        other => other.to_string(),
    }
}

/// Render an expression (fully parenthesized where precedence matters).
pub fn unparse_expr(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => unparse_value(v),
        Expr::Param(p) => format!("${p}"),
        Expr::Var(v) => ident(v),
        Expr::Prop(b, k) => format!("{}.{}", unparse_expr(b), ident(k)),
        Expr::HasLabel(b, ls) => format!("{}{}", unparse_expr(b), label_list(ls)),
        Expr::Unary(op, b) => match op {
            UnaryOp::Not => format!("NOT ({})", unparse_expr(b)),
            UnaryOp::Neg => format!("-({})", unparse_expr(b)),
        },
        Expr::Binary(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "%",
                BinOp::Pow => "^",
                BinOp::Eq => "=",
                BinOp::Neq => "<>",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "AND",
                BinOp::Or => "OR",
                BinOp::Xor => "XOR",
                BinOp::In => "IN",
                BinOp::StartsWith => "STARTS WITH",
                BinOp::EndsWith => "ENDS WITH",
                BinOp::Contains => "CONTAINS",
            };
            format!("({} {} {})", unparse_expr(a), sym, unparse_expr(b))
        }
        Expr::Func {
            name,
            args,
            distinct,
        } => format!(
            "{}({}{})",
            name,
            if *distinct { "DISTINCT " } else { "" },
            joined(args, ", ", unparse_expr)
        ),
        Expr::CountStar => "count(*)".to_string(),
        Expr::ListLit(items) => format!("[{}]", joined(items, ", ", unparse_expr)),
        Expr::MapLit(entries) => format!("{{{}}}", unparse_prop_map(entries)),
        Expr::Index(b, i) => format!("{}[{}]", unparse_expr(b), unparse_expr(i)),
        Expr::Slice(b, f, t) => format!(
            "{}[{}..{}]",
            unparse_expr(b),
            f.as_ref().map(|x| unparse_expr(x)).unwrap_or_default(),
            t.as_ref().map(|x| unparse_expr(x)).unwrap_or_default()
        ),
        Expr::Case {
            operand,
            whens,
            else_,
        } => {
            let mut s = String::from("CASE");
            if let Some(o) = operand {
                write!(s, " {}", unparse_expr(o)).unwrap();
            }
            for (w, t) in whens {
                write!(s, " WHEN {} THEN {}", unparse_expr(w), unparse_expr(t)).unwrap();
            }
            if let Some(el) = else_ {
                write!(s, " ELSE {}", unparse_expr(el)).unwrap();
            }
            s.push_str(" END");
            s
        }
        Expr::ExistsSubquery(patterns, where_) => {
            let pats = joined(patterns, ", ", unparse_pattern);
            match where_ {
                Some(w) => format!("EXISTS {{ MATCH {} WHERE {} }}", pats, unparse_expr(w)),
                None => format!("EXISTS {{ MATCH {} }}", pats),
            }
        }
        Expr::IsNull(b, negated) => format!(
            "{} IS {}NULL",
            unparse_expr(b),
            if *negated { "NOT " } else { "" }
        ),
        Expr::ListComp {
            var,
            list,
            filter,
            map,
        } => {
            let mut s = format!("[{} IN {}", ident(var), unparse_expr(list));
            if let Some(f) = filter {
                write!(s, " WHERE {}", unparse_expr(f)).unwrap();
            }
            if let Some(m) = map {
                write!(s, " | {}", unparse_expr(m)).unwrap();
            }
            s.push(']');
            s
        }
    }
}

/// Rename free variables throughout a query (used by translators to map
/// `NEW`/`OLD`/`NEWNODES` onto the target system's variable names, e.g.
/// `cNodes` in the paper's Figure 2): every name position — variables,
/// aliases, `SET`/`REMOVE` targets and node-pattern labels (which may name
/// a transition variable) — as the AST walk ([`visit`]) reaches them.
pub fn rename_vars(q: &Query, renames: &BTreeMap<String, String>) -> Query {
    let mut q = q.clone();
    visit::names_mut(&mut q.clauses, |name| {
        if let Some(to) = renames.get(name.as_str()) {
            name.clone_from(to);
        }
    });
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn round_trip(src: &str) {
        let q1 = parse_query(src).unwrap();
        let text = unparse_query(&q1);
        let q2 = parse_query(&text).unwrap_or_else(|e| panic!("re-parse of `{text}`: {e}"));
        assert_eq!(q1, q2, "round-trip changed AST for `{src}` → `{text}`");
    }

    #[test]
    fn round_trips() {
        for src in [
            "MATCH (n:Person {name: 'Ada'})-[:KNOWS*1..3]->(m) WHERE n.age > 30 RETURN m.name AS name ORDER BY name DESC SKIP 1 LIMIT 5",
            "OPTIONAL MATCH (a)<-[r:R {w: 1}]-(b) RETURN a, r, b",
            "CREATE (a:A {x: 1})-[:REL {w: 2}]->(b:B)",
            "MERGE (n:K {k: 1}) ON CREATE SET n.c = true ON MATCH SET n.m = true",
            "MATCH (n) DETACH DELETE n",
            "MATCH (n) SET n.a = 1, n:L, n += {b: 2} REMOVE n.c, n:M",
            "UNWIND [1, 2, 3] AS x WITH DISTINCT x WHERE x > 1 RETURN collect(x) AS xs",
            "FOREACH (i IN range(1, 3) | CREATE (:I {i: i}))",
            "MATCH (s) WHERE EXISTS { MATCH (s)-[:R]-(:T) WHERE s.x = 1 } RETURN count(*)",
            "RETURN CASE WHEN 1 > 0 THEN 'y' ELSE 'n' END AS v",
            "RETURN [x IN [1,2] WHERE x > 1 | x * 2] AS l",
            "RETURN {a: 1, b: 'two'} AS m, [1,2][0] AS i, 'abc'[1..2] AS s",
            "MATCH (n) WHERE n.name STARTS WITH 'a' AND NOT (n.x IS NULL) RETURN n",
            "MATCH (n) RETURN n.a + n.b * 2 - -n.c AS v, $p AS param",
            "ABORT 'nope'",
            "MATCH (a)-[r]-(b) WHERE a:X:Y RETURN type(r)",
        ] {
            round_trip(src);
        }
    }

    #[test]
    fn rename_vars_renames_everywhere() {
        let q =
            parse_query("MATCH (pn:NEWNODES)-[:TreatedAt]-(h) WHERE NEW.x > 0 RETURN NEW.name, pn")
                .unwrap();
        let renames: BTreeMap<String, String> = [
            ("NEW".to_string(), "cNodes".to_string()),
            ("NEWNODES".to_string(), "cList".to_string()),
        ]
        .into_iter()
        .collect();
        let q2 = rename_vars(&q, &renames);
        let text = unparse_query(&q2);
        assert!(text.contains("cNodes.x"), "{text}");
        assert!(text.contains("(pn:cList)"), "{text}");
        assert!(text.contains("cNodes.name"), "{text}");
        assert!(!text.contains("NEW"), "{text}");
    }

    #[test]
    fn backtick_quoting_for_odd_names() {
        let q = parse_query("MATCH (n:`Weird Label`) RETURN n.`odd prop`").unwrap();
        let text = unparse_query(&q);
        assert!(text.contains("`Weird Label`"));
        assert!(text.contains("`odd prop`"));
        round_trip("MATCH (n:`Weird Label`) RETURN n.`odd prop`");
    }
}
