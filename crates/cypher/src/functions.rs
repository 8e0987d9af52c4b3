//! Built-in scalar and aggregate functions.

use crate::error::{CypherError, Result};
use pg_graph::{GraphView, OrderKey, PropertyMap, Value};
use std::collections::BTreeSet;

/// The property map of a node or relationship value (empty when the item
/// does not exist in `view`); `None` for any other value.
fn item_props<'v>(view: &'v dyn GraphView, v: &Value) -> Option<&'v PropertyMap> {
    static NONE: PropertyMap = PropertyMap::new();
    match v {
        Value::Node(n) => Some(view.node(*n).map_or(&NONE, |n| &n.props)),
        Value::Rel(r) => Some(view.rel(*r).map_or(&NONE, |r| &r.props)),
        _ => None,
    }
}

/// Whether `name` (lower-cased) is an aggregate function.
pub fn is_aggregate(name: &str) -> bool {
    matches!(name, "count" | "sum" | "avg" | "min" | "max" | "collect")
}

/// Evaluate a scalar (non-aggregate) builtin. `now_ms` supplies the clock
/// for `datetime()`/`date()`/`timestamp()` so executions are deterministic
/// under test.
pub fn eval_scalar(name: &str, args: &[Value], view: &dyn GraphView, now_ms: i64) -> Result<Value> {
    let argn = |i: usize| -> &Value { args.get(i).unwrap_or(&Value::Null) };
    match name {
        "id" => match argn(0) {
            Value::Node(n) => Ok(Value::Int(n.0 as i64)),
            Value::Rel(r) => Ok(Value::Int(r.0 as i64)),
            Value::Null => Ok(Value::Null),
            other => Err(CypherError::type_err(format!(
                "id() expects a node or relationship, got {}",
                other.type_name()
            ))),
        },
        "labels" => match argn(0) {
            Value::Node(n) => Ok(Value::List(
                view.node(*n)
                    .into_iter()
                    .flat_map(|n| &n.labels)
                    .map(|l| Value::str(l.clone()))
                    .collect(),
            )),
            Value::Null => Ok(Value::Null),
            other => Err(CypherError::type_err(format!(
                "labels() expects a node, got {}",
                other.type_name()
            ))),
        },
        "type" => match argn(0) {
            Value::Rel(r) => Ok(view
                .rel(*r)
                .map(|r| Value::str(r.rel_type.clone()))
                .unwrap_or(Value::Null)),
            Value::Null => Ok(Value::Null),
            other => Err(CypherError::type_err(format!(
                "type() expects a relationship, got {}",
                other.type_name()
            ))),
        },
        "keys" => match item_props(view, argn(0)) {
            Some(props) => Ok(Value::List(
                props.keys().map(|k| Value::str(k.clone())).collect(),
            )),
            None => match argn(0) {
                Value::Map(m) => Ok(Value::List(m.keys().cloned().map(Value::Str).collect())),
                Value::Null => Ok(Value::Null),
                other => Err(CypherError::type_err(format!(
                    "keys() expects a node, relationship or map, got {}",
                    other.type_name()
                ))),
            },
        },
        "properties" => match item_props(view, argn(0)) {
            Some(props) => Ok(props.to_value()),
            None => match argn(0) {
                Value::Map(m) => Ok(Value::Map(m.clone())),
                Value::Null => Ok(Value::Null),
                other => Err(CypherError::type_err(format!(
                    "properties() expects a node or relationship, got {}",
                    other.type_name()
                ))),
            },
        },
        "startnode" => match argn(0) {
            Value::Rel(r) => Ok(view
                .rel(*r)
                .map(|r| Value::Node(r.src))
                .unwrap_or(Value::Null)),
            Value::Null => Ok(Value::Null),
            other => Err(CypherError::type_err(format!(
                "startNode() expects a relationship, got {}",
                other.type_name()
            ))),
        },
        "endnode" => match argn(0) {
            Value::Rel(r) => Ok(view
                .rel(*r)
                .map(|r| Value::Node(r.dst))
                .unwrap_or(Value::Null)),
            Value::Null => Ok(Value::Null),
            other => Err(CypherError::type_err(format!(
                "endNode() expects a relationship, got {}",
                other.type_name()
            ))),
        },
        "exists" => match argn(0) {
            // Property-existence form: exists(n.prop) — by the time we get
            // here the property was already resolved; non-null ⇒ true.
            Value::Null => Ok(Value::Bool(false)),
            _ => Ok(Value::Bool(true)),
        },
        "size" | "length" => match argn(0) {
            Value::List(items) => Ok(Value::Int(items.len() as i64)),
            Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
            Value::Map(m) => Ok(Value::Int(m.len() as i64)),
            Value::Null => Ok(Value::Null),
            other => Err(CypherError::type_err(format!(
                "size() expects a list or string, got {}",
                other.type_name()
            ))),
        },
        "head" => match argn(0) {
            Value::List(items) => Ok(items.first().cloned().unwrap_or(Value::Null)),
            Value::Null => Ok(Value::Null),
            other => Err(CypherError::type_err(format!(
                "head() expects a list, got {}",
                other.type_name()
            ))),
        },
        "last" => match argn(0) {
            Value::List(items) => Ok(items.last().cloned().unwrap_or(Value::Null)),
            Value::Null => Ok(Value::Null),
            other => Err(CypherError::type_err(format!(
                "last() expects a list, got {}",
                other.type_name()
            ))),
        },
        "reverse" => match argn(0) {
            Value::List(items) => Ok(Value::List(items.iter().rev().cloned().collect())),
            Value::Str(s) => Ok(Value::Str(s.chars().rev().collect())),
            Value::Null => Ok(Value::Null),
            other => Err(CypherError::type_err(format!(
                "reverse() expects a list or string, got {}",
                other.type_name()
            ))),
        },
        "range" => {
            let from = argn(0)
                .as_i64()
                .ok_or_else(|| CypherError::type_err("range() start"))?;
            let to = argn(1)
                .as_i64()
                .ok_or_else(|| CypherError::type_err("range() end"))?;
            let step = if args.len() > 2 {
                argn(2)
                    .as_i64()
                    .ok_or_else(|| CypherError::type_err("range() step"))?
            } else {
                1
            };
            if step == 0 {
                return Err(CypherError::Arithmetic(
                    "range() step must be non-zero".into(),
                ));
            }
            let mut out = Vec::new();
            let mut x = from;
            if step > 0 {
                while x <= to {
                    out.push(Value::Int(x));
                    x += step;
                }
            } else {
                while x >= to {
                    out.push(Value::Int(x));
                    x += step;
                }
            }
            Ok(Value::List(out))
        }
        "coalesce" => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        "tointeger" | "toint" => match argn(0) {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(f) => Ok(Value::Int(*f as i64)),
            Value::Str(s) => Ok(s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Null)),
            Value::Bool(b) => Ok(Value::Int(*b as i64)),
            Value::Null => Ok(Value::Null),
            _ => Ok(Value::Null),
        },
        "tofloat" => match argn(0) {
            Value::Int(i) => Ok(Value::Float(*i as f64)),
            Value::Float(f) => Ok(Value::Float(*f)),
            Value::Str(s) => Ok(s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .unwrap_or(Value::Null)),
            Value::Null => Ok(Value::Null),
            _ => Ok(Value::Null),
        },
        "tostring" => match argn(0) {
            Value::Null => Ok(Value::Null),
            v => Ok(Value::Str(v.to_string())),
        },
        "toupper" => match argn(0) {
            Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
            Value::Null => Ok(Value::Null),
            other => Err(CypherError::type_err(format!(
                "toUpper() expects a string, got {}",
                other.type_name()
            ))),
        },
        "tolower" => match argn(0) {
            Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
            Value::Null => Ok(Value::Null),
            other => Err(CypherError::type_err(format!(
                "toLower() expects a string, got {}",
                other.type_name()
            ))),
        },
        "trim" => match argn(0) {
            Value::Str(s) => Ok(Value::Str(s.trim().to_string())),
            Value::Null => Ok(Value::Null),
            _ => Err(CypherError::type_err("trim() expects a string")),
        },
        "split" => match (argn(0), argn(1)) {
            (Value::Str(s), Value::Str(sep)) => Ok(Value::List(
                s.split(sep.as_str())
                    .map(|p| Value::Str(p.to_string()))
                    .collect(),
            )),
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            _ => Err(CypherError::type_err("split() expects (string, string)")),
        },
        "replace" => match (argn(0), argn(1), argn(2)) {
            (Value::Str(s), Value::Str(from), Value::Str(to)) => {
                Ok(Value::Str(s.replace(from.as_str(), to)))
            }
            (Value::Null, _, _) => Ok(Value::Null),
            _ => Err(CypherError::type_err(
                "replace() expects (string, string, string)",
            )),
        },
        "substring" => match (argn(0), argn(1)) {
            (Value::Str(s), Value::Int(start)) => {
                let start = (*start).max(0) as usize;
                let chars: Vec<char> = s.chars().collect();
                let end = if let Some(Value::Int(len)) = args.get(2) {
                    (start + (*len).max(0) as usize).min(chars.len())
                } else {
                    chars.len()
                };
                let start = start.min(chars.len());
                Ok(Value::Str(chars[start..end].iter().collect()))
            }
            (Value::Null, _) => Ok(Value::Null),
            _ => Err(CypherError::type_err(
                "substring() expects (string, int[, int])",
            )),
        },
        "abs" => match argn(0) {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            Value::Null => Ok(Value::Null),
            _ => Err(CypherError::type_err("abs() expects a number")),
        },
        "sign" => match argn(0) {
            Value::Int(i) => Ok(Value::Int(i.signum())),
            Value::Float(f) => Ok(Value::Int(if *f > 0.0 {
                1
            } else if *f < 0.0 {
                -1
            } else {
                0
            })),
            Value::Null => Ok(Value::Null),
            _ => Err(CypherError::type_err("sign() expects a number")),
        },
        "ceil" => match argn(0) {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(f) => Ok(Value::Float(f.ceil())),
            Value::Null => Ok(Value::Null),
            _ => Err(CypherError::type_err("ceil() expects a number")),
        },
        "floor" => match argn(0) {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(f) => Ok(Value::Float(f.floor())),
            Value::Null => Ok(Value::Null),
            _ => Err(CypherError::type_err("floor() expects a number")),
        },
        "round" => match argn(0) {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(f) => Ok(Value::Float(f.round())),
            Value::Null => Ok(Value::Null),
            _ => Err(CypherError::type_err("round() expects a number")),
        },
        "sqrt" => match argn(0).as_f64() {
            Some(f) => Ok(Value::Float(f.sqrt())),
            None if argn(0).is_null() => Ok(Value::Null),
            None => Err(CypherError::type_err("sqrt() expects a number")),
        },
        "datetime" => Ok(Value::DateTime(now_ms)),
        "date" => Ok(Value::Date(now_ms / 86_400_000)),
        "timestamp" => Ok(Value::Int(now_ms)),
        "abort" => {
            let msg = match argn(0) {
                Value::Str(s) => s.clone(),
                Value::Null => "aborted".to_string(),
                other => other.to_string(),
            };
            Err(CypherError::Aborted(msg))
        }
        other => Err(CypherError::UnknownFunction(other.to_string())),
    }
}

/// Accumulator for aggregate functions.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// `seen` is `Some` for `count(DISTINCT …)`.
    Count {
        n: i64,
        seen: Option<BTreeSet<OrderKey>>,
    },
    Sum {
        acc: Value,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    Min {
        acc: Option<Value>,
    },
    Max {
        acc: Option<Value>,
    },
    /// `seen` is `Some` for `collect(DISTINCT …)`.
    Collect {
        items: Vec<Value>,
        seen: Option<BTreeSet<OrderKey>>,
    },
}

impl Accumulator {
    /// A fresh accumulator for the given aggregate function name.
    pub fn new(name: &str, distinct: bool) -> Option<Accumulator> {
        let seen = distinct.then(BTreeSet::new);
        Some(match name {
            "count" => Accumulator::Count { n: 0, seen },
            "sum" => Accumulator::Sum { acc: Value::Int(0) },
            "avg" => Accumulator::Avg { sum: 0.0, n: 0 },
            "min" => Accumulator::Min { acc: None },
            "max" => Accumulator::Max { acc: None },
            "collect" => Accumulator::Collect {
                items: Vec::new(),
                seen,
            },
            _ => return None,
        })
    }

    /// Fold one input value. `NULL` inputs are skipped (SQL semantics).
    pub fn push(&mut self, v: Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            Accumulator::Count { n, seen } => {
                if seen.as_mut().is_none_or(|s| s.insert(OrderKey(v))) {
                    *n += 1;
                }
            }
            Accumulator::Sum { acc } => {
                *acc = acc
                    .add(&v)
                    .ok_or_else(|| CypherError::type_err("sum() over non-numeric values"))?;
            }
            Accumulator::Avg { sum, n } => {
                let f = v
                    .as_f64()
                    .ok_or_else(|| CypherError::type_err("avg() over non-numeric values"))?;
                *sum += f;
                *n += 1;
            }
            Accumulator::Min { acc } => {
                if acc.as_ref().is_none_or(|cur| v.cmp_order(cur).is_lt()) {
                    *acc = Some(v);
                }
            }
            Accumulator::Max { acc } => {
                if acc.as_ref().is_none_or(|cur| v.cmp_order(cur).is_gt()) {
                    *acc = Some(v);
                }
            }
            Accumulator::Collect { items, seen } => {
                let v = crate::expr::element(v)?;
                if seen.as_mut().is_none_or(|s| s.insert(OrderKey(v.clone()))) {
                    items.push(v);
                }
            }
        }
        Ok(())
    }

    /// Fold `v` as `times` input values, as that many
    /// [`Accumulator::push`]es would: once where repeating changes nothing.
    pub(crate) fn push_n(&mut self, v: Value, times: usize) -> Result<()> {
        let once = match self {
            Accumulator::Count { n, seen: None } if !v.is_null() => {
                *n += times as i64;
                return Ok(());
            }
            Accumulator::Sum { .. } | Accumulator::Avg { .. } => false,
            Accumulator::Collect { seen, .. } => seen.is_some(),
            _ => true,
        };
        let times = if once { times.min(1) } else { times };
        (0..times).try_for_each(|_| self.push(v.clone()))
    }

    /// Fold `values` in order. A `DISTINCT` count that has seen nothing
    /// bulk-builds its set; a later batch inserts one by one, so no batch
    /// rebuilds what earlier ones built.
    pub(crate) fn push_all(&mut self, mut values: impl Iterator<Item = Value>) -> Result<()> {
        match self {
            Accumulator::Count {
                n,
                seen: Some(seen),
            } if seen.is_empty() => {
                *seen = values.filter(|v| !v.is_null()).map(OrderKey).collect();
                *n = seen.len() as i64;
                Ok(())
            }
            _ => values.try_for_each(|v| self.push(v)),
        }
    }

    /// The final aggregate value.
    pub fn finish(self) -> Value {
        match self {
            Accumulator::Count { n, .. } => Value::Int(n),
            Accumulator::Sum { acc } => acc,
            Accumulator::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Accumulator::Min { acc } | Accumulator::Max { acc } => acc.unwrap_or(Value::Null),
            Accumulator::Collect { items, .. } => Value::List(items),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_graph::Graph;

    fn empty_view() -> Graph {
        Graph::new()
    }

    #[test]
    fn coalesce_and_conversions() {
        let g = empty_view();
        assert_eq!(
            eval_scalar("coalesce", &[Value::Null, Value::Int(2)], &g, 0).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval_scalar("tointeger", &[Value::str("42")], &g, 0).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            eval_scalar("tointeger", &[Value::str("nope")], &g, 0).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_scalar("tofloat", &[Value::Int(1)], &g, 0).unwrap(),
            Value::Float(1.0)
        );
        assert_eq!(
            eval_scalar("tostring", &[Value::Int(7)], &g, 0).unwrap(),
            Value::str("7")
        );
    }

    #[test]
    fn string_functions() {
        let g = empty_view();
        assert_eq!(
            eval_scalar("toupper", &[Value::str("ab")], &g, 0).unwrap(),
            Value::str("AB")
        );
        assert_eq!(
            eval_scalar("split", &[Value::str("a,b"), Value::str(",")], &g, 0).unwrap(),
            Value::list([Value::str("a"), Value::str("b")])
        );
        assert_eq!(
            eval_scalar(
                "substring",
                &[Value::str("hello"), Value::Int(1), Value::Int(3)],
                &g,
                0
            )
            .unwrap(),
            Value::str("ell")
        );
        assert_eq!(
            eval_scalar(
                "replace",
                &[Value::str("aXa"), Value::str("X"), Value::str("b")],
                &g,
                0
            )
            .unwrap(),
            Value::str("aba")
        );
    }

    #[test]
    fn numeric_functions() {
        let g = empty_view();
        assert_eq!(
            eval_scalar("abs", &[Value::Int(-3)], &g, 0).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_scalar("sign", &[Value::Float(-0.5)], &g, 0).unwrap(),
            Value::Int(-1)
        );
        assert_eq!(
            eval_scalar("ceil", &[Value::Float(1.2)], &g, 0).unwrap(),
            Value::Float(2.0)
        );
        assert_eq!(
            eval_scalar("sqrt", &[Value::Int(9)], &g, 0).unwrap(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn clock_functions_use_now() {
        let g = empty_view();
        assert_eq!(
            eval_scalar("datetime", &[], &g, 86_400_000).unwrap(),
            Value::DateTime(86_400_000)
        );
        assert_eq!(
            eval_scalar("date", &[], &g, 86_400_000).unwrap(),
            Value::Date(1)
        );
        assert_eq!(eval_scalar("timestamp", &[], &g, 5).unwrap(), Value::Int(5));
    }

    #[test]
    fn list_functions() {
        let g = empty_view();
        let l = Value::list([Value::Int(1), Value::Int(2)]);
        assert_eq!(
            eval_scalar("size", std::slice::from_ref(&l), &g, 0).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval_scalar("head", std::slice::from_ref(&l), &g, 0).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            eval_scalar("last", std::slice::from_ref(&l), &g, 0).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval_scalar("range", &[Value::Int(1), Value::Int(3)], &g, 0).unwrap(),
            Value::list([Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            eval_scalar(
                "range",
                &[Value::Int(3), Value::Int(1), Value::Int(-1)],
                &g,
                0
            )
            .unwrap(),
            Value::list([Value::Int(3), Value::Int(2), Value::Int(1)])
        );
    }

    #[test]
    fn abort_raises() {
        let g = empty_view();
        let err = eval_scalar("abort", &[Value::str("boom")], &g, 0).unwrap_err();
        assert_eq!(err, CypherError::Aborted("boom".into()));
    }

    #[test]
    fn unknown_function_error() {
        let g = empty_view();
        assert!(matches!(
            eval_scalar("frobnicate", &[], &g, 0),
            Err(CypherError::UnknownFunction(_))
        ));
    }

    #[test]
    fn aggregates() {
        let mut c = Accumulator::new("count", false).unwrap();
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(1)).unwrap();
        assert_eq!(c.finish(), Value::Int(2));

        let mut c = Accumulator::new("count", true).unwrap();
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Int(2)).unwrap();
        assert_eq!(c.finish(), Value::Int(2));

        let mut s = Accumulator::new("sum", false).unwrap();
        s.push(Value::Int(1)).unwrap();
        s.push(Value::Float(0.5)).unwrap();
        assert_eq!(s.finish(), Value::Float(1.5));

        let mut a = Accumulator::new("avg", false).unwrap();
        a.push(Value::Int(1)).unwrap();
        a.push(Value::Int(3)).unwrap();
        assert_eq!(a.finish(), Value::Float(2.0));
        assert_eq!(
            Accumulator::new("avg", false).unwrap().finish(),
            Value::Null
        );

        let mut m = Accumulator::new("min", false).unwrap();
        m.push(Value::Int(5)).unwrap();
        m.push(Value::Int(2)).unwrap();
        assert_eq!(m.finish(), Value::Int(2));

        let mut col = Accumulator::new("collect", false).unwrap();
        col.push(Value::Int(1)).unwrap();
        col.push(Value::Null).unwrap();
        col.push(Value::Int(2)).unwrap();
        assert_eq!(col.finish(), Value::list([Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn is_aggregate_names() {
        assert!(is_aggregate("count"));
        assert!(is_aggregate("collect"));
        assert!(!is_aggregate("size"));
    }
}
