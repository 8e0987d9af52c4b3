//! Expression evaluation (read-only; mutations live in `exec`).

use crate::ast::{BinOp, Expr, UnaryOp};
use crate::batch::match_patterns_batch;
use crate::error::{CypherError, Result};
use crate::exec::{Flow, MatchMode};
use crate::functions;
use crate::pattern;
use crate::row::{Params, Row};
use pg_graph::{GraphView, PropertyMap, Value, MAX_NESTING};

/// Evaluation context: a read view plus parameters and the statement clock.
pub struct EvalCtx<'a> {
    pub view: &'a dyn GraphView,
    pub params: &'a Params,
    pub now_ms: i64,
}

impl<'a> EvalCtx<'a> {
    pub fn new(view: &'a dyn GraphView, params: &'a Params, now_ms: i64) -> Self {
        EvalCtx {
            view,
            params,
            now_ms,
        }
    }
}

/// Evaluate an expression against a binding row.
pub fn eval(ctx: &EvalCtx<'_>, row: &Row, expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(p) => Ok(ctx.params.get(p).cloned().unwrap_or(Value::Null)),
        Expr::Var(name) => row
            .get(name)
            .cloned()
            .ok_or_else(|| CypherError::UnboundVariable(name.clone())),
        Expr::Prop(base, key) => {
            let b = eval(ctx, row, base)?;
            prop_of(ctx, &b, key)
        }
        Expr::HasLabel(base, labels) => {
            let b = eval(ctx, row, base)?;
            match b {
                Value::Node(n) => {
                    let rec = ctx.view.node(n);
                    Ok(Value::Bool(
                        labels.iter().all(|l| rec.is_some_and(|r| r.has_label(l))),
                    ))
                }
                Value::Rel(r) => {
                    let t = ctx.view.rel(r).map(|r| r.rel_type.as_str());
                    Ok(Value::Bool(labels.iter().all(|l| t == Some(l))))
                }
                Value::Null => Ok(Value::Null),
                other => Err(CypherError::type_err(format!(
                    "label predicate on {}",
                    other.type_name()
                ))),
            }
        }
        Expr::Unary(op, inner) => {
            let v = eval(ctx, row, inner)?;
            match op {
                UnaryOp::Not => Ok(not3(truth3(&v)?)),
                UnaryOp::Neg => v.neg().ok_or_else(|| {
                    CypherError::Arithmetic(format!("cannot negate {}", v.type_name()))
                }),
            }
        }
        Expr::Binary(op, lhs, rhs) => eval_binary(ctx, row, *op, lhs, rhs),
        Expr::Func {
            name,
            args,
            distinct: _,
        } => {
            if functions::is_aggregate(name) {
                return Err(CypherError::type_err(format!(
                    "aggregate function {name}() not allowed in this context"
                )));
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(ctx, row, a)?);
            }
            functions::eval_scalar(name, &vals, ctx.view, ctx.now_ms)
        }
        Expr::CountStar => Err(CypherError::type_err(
            "count(*) not allowed outside WITH/RETURN",
        )),
        Expr::ListLit(items) => {
            let mut out = Vec::with_capacity(items.len());
            for i in items {
                out.push(element(eval(ctx, row, i)?)?);
            }
            Ok(Value::List(out))
        }
        Expr::MapLit(entries) => {
            let mut m = std::collections::BTreeMap::new();
            for (k, v) in entries {
                m.insert(k.clone(), element(eval(ctx, row, v)?)?);
            }
            Ok(Value::Map(m))
        }
        Expr::Index(base, idx) => {
            let b = eval(ctx, row, base)?;
            let i = eval(ctx, row, idx)?;
            match (&b, &i) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::List(items), Value::Int(n)) => {
                    let len = items.len() as i64;
                    let k = if *n < 0 { len + n } else { *n };
                    if k < 0 || k >= len {
                        Ok(Value::Null)
                    } else {
                        Ok(items[k as usize].clone())
                    }
                }
                (Value::Map(m), Value::Str(k)) => Ok(m.get(k).cloned().unwrap_or(Value::Null)),
                (b, i) => Err(CypherError::type_err(format!(
                    "cannot index {} with {}",
                    b.type_name(),
                    i.type_name()
                ))),
            }
        }
        Expr::Slice(base, from, to) => {
            let b = eval(ctx, row, base)?;
            match b {
                Value::Null => Ok(Value::Null),
                Value::List(items) => {
                    let len = items.len() as i64;
                    let norm = |v: Option<&Expr>, default: i64| -> Result<i64> {
                        match v {
                            None => Ok(default),
                            Some(e) => {
                                let val = eval(ctx, row, e)?;
                                let n = val.as_i64().ok_or_else(|| {
                                    CypherError::type_err("slice bound must be an integer")
                                })?;
                                Ok(if n < 0 { len + n } else { n })
                            }
                        }
                    };
                    let f = norm(from.as_deref(), 0)?.clamp(0, len);
                    let t = norm(to.as_deref(), len)?.clamp(0, len);
                    if f >= t {
                        Ok(Value::List(Vec::new()))
                    } else {
                        Ok(Value::List(items[f as usize..t as usize].to_vec()))
                    }
                }
                other => Err(CypherError::type_err(format!(
                    "cannot slice {}",
                    other.type_name()
                ))),
            }
        }
        Expr::Case {
            operand,
            whens,
            else_,
        } => {
            match operand {
                Some(op) => {
                    let v = eval(ctx, row, op)?;
                    for (w, t) in whens {
                        let wv = eval(ctx, row, w)?;
                        if v.eq3(&wv) == Some(true) {
                            return eval(ctx, row, t);
                        }
                    }
                }
                None => {
                    for (w, t) in whens {
                        let wv = eval(ctx, row, w)?;
                        if wv.is_truthy() {
                            return eval(ctx, row, t);
                        }
                    }
                }
            }
            match else_ {
                Some(e) => eval(ctx, row, e),
                None => Ok(Value::Null),
            }
        }
        Expr::ExistsSubquery(patterns, where_) => {
            // The matcher stops at the first match.
            let (where_, mut found) = (where_.as_deref(), false);
            let pushed = pattern::extract_pushdowns(where_);
            let mut first = |_: usize, _: Row| -> Result<Flow> {
                found = true;
                Ok(Flow::Break(()))
            };
            let (seeds, mode) = (std::slice::from_ref(row), MatchMode::Batched);
            let _ = match_patterns_batch(ctx, seeds, patterns, where_, &pushed, mode, &mut first)?;
            Ok(Value::Bool(found))
        }
        Expr::IsNull(inner, negated) => {
            let v = eval(ctx, row, inner)?;
            let isnull = v.is_null();
            Ok(Value::Bool(if *negated { !isnull } else { isnull }))
        }
        Expr::ListComp {
            var,
            list,
            filter,
            map,
        } => {
            let lv = eval(ctx, row, list)?;
            let items = match lv {
                Value::Null => return Ok(Value::Null),
                Value::List(items) => items,
                other => {
                    return Err(CypherError::type_err(format!(
                        "list comprehension over {}",
                        other.type_name()
                    )))
                }
            };
            let mut out = Vec::new();
            for item in items {
                let mut inner_row = row.clone_with_room(1);
                inner_row.set(var, item.clone());
                if let Some(f) = filter {
                    if !eval(ctx, &inner_row, f)?.is_truthy() {
                        continue;
                    }
                }
                match map {
                    Some(m) => out.push(element(eval(ctx, &inner_row, m)?)?),
                    None => out.push(item),
                }
            }
            Ok(Value::List(out))
        }
    }
}

/// Fail with [`CypherError::TooDeep`] unless `item` can be an element of a
/// list or map: one level less than [`MAX_NESTING`]. Every value the engine
/// builds passes through here or comes from a bounded source (the parser,
/// the codec, the store), so checking the new element bounds the result,
/// and the check itself recurses at most `MAX_NESTING` levels.
pub(crate) fn element(item: Value) -> Result<Value> {
    if item.nests_within(MAX_NESTING - 1) {
        Ok(item)
    } else {
        Err(CypherError::TooDeep)
    }
}

/// Property lookup on nodes, relationships, and maps (`OLD` transition
/// values are maps; paper §4.2 "Transition Variables").
pub fn prop_of(ctx: &EvalCtx<'_>, base: &Value, key: &str) -> Result<Value> {
    match base {
        Value::Node(n) => Ok(stored(ctx.view.node(*n).map(|n| &n.props), key)),
        Value::Rel(r) => Ok(stored(ctx.view.rel(*r).map(|r| &r.props), key)),
        Value::Map(m) => Ok(m.get(key).cloned().unwrap_or(Value::Null)),
        Value::Null => Ok(Value::Null),
        other => Err(CypherError::type_err(format!(
            "property access on {}",
            other.type_name()
        ))),
    }
}

/// The stored value of `key` (NULL when the item or the key is absent).
fn stored(props: Option<&PropertyMap>, key: &str) -> Value {
    props
        .and_then(|p| p.get(key))
        .cloned()
        .unwrap_or(Value::Null)
}

/// Three-valued truth of a value: `Some(bool)` or `None` for NULL.
fn truth3(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        other => Err(CypherError::type_err(format!(
            "expected a boolean, got {}",
            other.type_name()
        ))),
    }
}

fn bool3(b: Option<bool>) -> Value {
    match b {
        Some(x) => Value::Bool(x),
        None => Value::Null,
    }
}

fn not3(b: Option<bool>) -> Value {
    bool3(b.map(|x| !x))
}

fn eval_binary(ctx: &EvalCtx<'_>, row: &Row, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Value> {
    // Short-circuit logic operators first.
    match op {
        BinOp::And => {
            let l = truth3(&eval(ctx, row, lhs)?)?;
            if l == Some(false) {
                return Ok(Value::Bool(false));
            }
            let r = truth3(&eval(ctx, row, rhs)?)?;
            return Ok(match (l, r) {
                (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            });
        }
        BinOp::Or => {
            let l = truth3(&eval(ctx, row, lhs)?)?;
            if l == Some(true) {
                return Ok(Value::Bool(true));
            }
            let r = truth3(&eval(ctx, row, rhs)?)?;
            return Ok(match (l, r) {
                (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            });
        }
        BinOp::Xor => {
            let l = truth3(&eval(ctx, row, lhs)?)?;
            let r = truth3(&eval(ctx, row, rhs)?)?;
            return Ok(match (l, r) {
                (Some(a), Some(b)) => Value::Bool(a != b),
                _ => Value::Null,
            });
        }
        _ => {}
    }

    let l = eval(ctx, row, lhs)?;
    let mut r = eval(ctx, row, rhs)?;
    if let (BinOp::Add, Value::List(_), Value::Map(_)) = (op, &l, &r) {
        // `list + map` appends the map as one more element.
        r = element(r)?;
    }
    match op {
        BinOp::Add => l.add(&r).ok_or_else(|| arith("+", &l, &r)),
        BinOp::Sub => l.sub(&r).ok_or_else(|| arith("-", &l, &r)),
        BinOp::Mul => l.mul(&r).ok_or_else(|| arith("*", &l, &r)),
        BinOp::Div => l.div(&r).ok_or_else(|| {
            if matches!((&l, &r), (Value::Int(_), Value::Int(0))) {
                CypherError::Arithmetic("division by zero".into())
            } else {
                arith("/", &l, &r)
            }
        }),
        BinOp::Mod => l.modulo(&r).ok_or_else(|| {
            if matches!((&l, &r), (Value::Int(_), Value::Int(0))) {
                CypherError::Arithmetic("modulo by zero".into())
            } else {
                arith("%", &l, &r)
            }
        }),
        BinOp::Pow => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => Ok(Value::Float(a.powf(b))),
            _ if l.is_null() || r.is_null() => Ok(Value::Null),
            _ => Err(arith("^", &l, &r)),
        },
        BinOp::Eq => Ok(bool3(l.eq3(&r))),
        BinOp::Neq => Ok(not3(l.eq3(&r))),
        BinOp::Lt => Ok(bool3(l.cmp3(&r).map(|o| o == std::cmp::Ordering::Less))),
        BinOp::Le => Ok(bool3(l.cmp3(&r).map(|o| o != std::cmp::Ordering::Greater))),
        BinOp::Gt => Ok(bool3(l.cmp3(&r).map(|o| o == std::cmp::Ordering::Greater))),
        BinOp::Ge => Ok(bool3(l.cmp3(&r).map(|o| o != std::cmp::Ordering::Less))),
        BinOp::In => {
            if l.is_null() {
                return Ok(Value::Null);
            }
            match &r {
                Value::Null => Ok(Value::Null),
                Value::List(items) => {
                    let mut saw_null = false;
                    for item in items {
                        match l.eq3(item) {
                            Some(true) => return Ok(Value::Bool(true)),
                            Some(false) => {}
                            None => saw_null = true,
                        }
                    }
                    Ok(if saw_null {
                        Value::Null
                    } else {
                        Value::Bool(false)
                    })
                }
                other => Err(CypherError::type_err(format!(
                    "IN expects a list, got {}",
                    other.type_name()
                ))),
            }
        }
        BinOp::StartsWith | BinOp::EndsWith | BinOp::Contains => match (&l, &r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Str(a), Value::Str(b)) => Ok(Value::Bool(match op {
                BinOp::StartsWith => a.starts_with(b.as_str()),
                BinOp::EndsWith => a.ends_with(b.as_str()),
                BinOp::Contains => a.contains(b.as_str()),
                _ => unreachable!(),
            })),
            // CONTAINS also works on lists (membership), mirroring IN.
            (Value::List(items), x) if op == BinOp::Contains => {
                Ok(Value::Bool(items.iter().any(|i| x.eq3(i) == Some(true))))
            }
            _ => Err(CypherError::type_err(format!(
                "string operator on {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        },
        BinOp::And | BinOp::Or | BinOp::Xor => unreachable!("handled above"),
    }
}

fn arith(op: &str, l: &Value, r: &Value) -> CypherError {
    CypherError::Arithmetic(format!(
        "cannot apply '{op}' to {} and {}",
        l.type_name(),
        r.type_name()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;
    use pg_graph::{Graph, PropertyMap};

    fn eval_str(src: &str, row: &Row, g: &Graph) -> Result<Value> {
        let e = parse_expression(src).unwrap();
        let params = Params::new();
        let ctx = EvalCtx::new(g, &params, 1_000);
        eval(&ctx, row, &e)
    }

    #[test]
    fn arithmetic_and_precedence() {
        let g = Graph::new();
        let r = Row::new();
        assert_eq!(eval_str("1 + 2 * 3", &r, &g).unwrap(), Value::Int(7));
        assert_eq!(eval_str("(1 + 2) * 3", &r, &g).unwrap(), Value::Int(9));
        assert_eq!(eval_str("2 ^ 3 ^ 2", &r, &g).unwrap(), Value::Float(512.0));
        assert_eq!(eval_str("-2 + 5", &r, &g).unwrap(), Value::Int(3));
        assert_eq!(eval_str("7 % 3", &r, &g).unwrap(), Value::Int(1));
    }

    #[test]
    fn division_by_zero_errors() {
        let g = Graph::new();
        let r = Row::new();
        assert!(matches!(
            eval_str("1 / 0", &r, &g),
            Err(CypherError::Arithmetic(_))
        ));
        // float division by zero is IEEE
        assert_eq!(
            eval_str("1.0 / 0.0", &r, &g).unwrap(),
            Value::Float(f64::INFINITY)
        );
    }

    #[test]
    fn three_valued_logic() {
        let g = Graph::new();
        let r = Row::new();
        assert_eq!(
            eval_str("null AND false", &r, &g).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(eval_str("null AND true", &r, &g).unwrap(), Value::Null);
        assert_eq!(eval_str("null OR true", &r, &g).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("null OR false", &r, &g).unwrap(), Value::Null);
        assert_eq!(eval_str("NOT null", &r, &g).unwrap(), Value::Null);
        assert_eq!(eval_str("null = null", &r, &g).unwrap(), Value::Null);
        assert_eq!(eval_str("null IS NULL", &r, &g).unwrap(), Value::Bool(true));
        assert_eq!(
            eval_str("1 IS NOT NULL", &r, &g).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("true XOR false", &r, &g).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("true XOR null", &r, &g).unwrap(), Value::Null);
    }

    #[test]
    fn in_operator() {
        let g = Graph::new();
        let r = Row::new();
        assert_eq!(eval_str("2 IN [1, 2]", &r, &g).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("3 IN [1, 2]", &r, &g).unwrap(), Value::Bool(false));
        assert_eq!(eval_str("3 IN [1, null]", &r, &g).unwrap(), Value::Null);
        assert_eq!(eval_str("null IN [1]", &r, &g).unwrap(), Value::Null);
    }

    #[test]
    fn string_predicates() {
        let g = Graph::new();
        let r = Row::new();
        assert_eq!(
            eval_str("'Spike:D614G' STARTS WITH 'Spike'", &r, &g).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("'abc' ENDS WITH 'bc'", &r, &g).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("'abc' CONTAINS 'z'", &r, &g).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn property_access_on_node_map_null() {
        let mut g = Graph::new();
        let props: PropertyMap = [("name".to_string(), Value::str("Alpha"))]
            .into_iter()
            .collect();
        let n = g.create_node(["Lineage"], props).unwrap();
        let mut row = Row::new();
        row.set("l", Value::Node(n));
        row.set("m", Value::map([("k".to_string(), Value::Int(3))]));
        row.set("x", Value::Null);
        assert_eq!(eval_str("l.name", &row, &g).unwrap(), Value::str("Alpha"));
        assert_eq!(eval_str("l.missing", &row, &g).unwrap(), Value::Null);
        assert_eq!(eval_str("m.k", &row, &g).unwrap(), Value::Int(3));
        assert_eq!(eval_str("x.anything", &row, &g).unwrap(), Value::Null);
        assert!(eval_str("1 .k", &row, &g).is_err());
    }

    #[test]
    fn label_predicate() {
        let mut g = Graph::new();
        let n = g.create_node(["A", "B"], PropertyMap::new()).unwrap();
        let mut row = Row::new();
        row.set("n", Value::Node(n));
        assert_eq!(eval_str("n:A", &row, &g).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("n:A:B", &row, &g).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("n:A:C", &row, &g).unwrap(), Value::Bool(false));
    }

    #[test]
    fn index_and_slice() {
        let g = Graph::new();
        let r = Row::new();
        assert_eq!(eval_str("[1,2,3][0]", &r, &g).unwrap(), Value::Int(1));
        assert_eq!(eval_str("[1,2,3][-1]", &r, &g).unwrap(), Value::Int(3));
        assert_eq!(eval_str("[1,2,3][9]", &r, &g).unwrap(), Value::Null);
        assert_eq!(
            eval_str("[1,2,3,4][1..3]", &r, &g).unwrap(),
            Value::list([Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            eval_str("[1,2,3,4][..2]", &r, &g).unwrap(),
            Value::list([Value::Int(1), Value::Int(2)])
        );
        assert_eq!(eval_str("{a: 1}['a']", &r, &g).unwrap(), Value::Int(1));
    }

    #[test]
    fn case_expressions() {
        let g = Graph::new();
        let mut r = Row::new();
        r.set("x", Value::Int(2));
        assert_eq!(
            eval_str("CASE WHEN x > 1 THEN 'big' ELSE 'small' END", &r, &g).unwrap(),
            Value::str("big")
        );
        assert_eq!(
            eval_str("CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' END", &r, &g).unwrap(),
            Value::str("two")
        );
        assert_eq!(
            eval_str("CASE x WHEN 9 THEN 'nine' END", &r, &g).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn list_comprehension() {
        let g = Graph::new();
        let r = Row::new();
        assert_eq!(
            eval_str("[x IN [1,2,3] WHERE x > 1 | x * 10]", &r, &g).unwrap(),
            Value::list([Value::Int(20), Value::Int(30)])
        );
        assert_eq!(
            eval_str("[x IN [1,2,3] WHERE x > 10]", &r, &g).unwrap(),
            Value::list([])
        );
    }

    #[test]
    fn unbound_variable_error() {
        let g = Graph::new();
        let r = Row::new();
        assert_eq!(
            eval_str("ghost", &r, &g),
            Err(CypherError::UnboundVariable("ghost".into()))
        );
    }

    #[test]
    fn params_resolve() {
        let g = Graph::new();
        let e = parse_expression("$threshold + 1").unwrap();
        let mut params = Params::new();
        params.insert("threshold".to_string(), Value::Int(49));
        let ctx = EvalCtx::new(&g, &params, 0);
        assert_eq!(eval(&ctx, &Row::new(), &e).unwrap(), Value::Int(50));
    }

    #[test]
    fn aggregate_rejected_outside_projection() {
        let g = Graph::new();
        let r = Row::new();
        assert!(matches!(
            eval_str("count(1)", &r, &g),
            Err(CypherError::Type(_))
        ));
        assert!(matches!(
            eval_str("count(*)", &r, &g),
            Err(CypherError::Type(_))
        ));
    }
}
