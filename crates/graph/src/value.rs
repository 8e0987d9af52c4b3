//! The value model shared by the store and the query layer.
//!
//! Values follow Cypher/GQL conventions: `NULL` propagates through
//! arithmetic and comparisons (three-valued logic), numeric types promote
//! `Int → Float`, `+` concatenates strings and lists, and there is one
//! *total* ordering, [`Value::cmp_order`] (keyed by [`OrderKey`]), that
//! ranks values first by type and then by content and decides sorting,
//! `min`/`max`, grouping and `DISTINCT` alike.

use crate::ids::{NodeId, RelId};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// Direction of relationship traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Outgoing relationships (`(a)-[r]->(b)` from `a`).
    Out,
    /// Incoming relationships.
    In,
    /// Both directions (`(a)-[r]-(b)`).
    Both,
}

impl Direction {
    /// The direction as seen from the opposite endpoint.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
            Direction::Both => Direction::Both,
        }
    }
}

/// How deeply lists and maps may nest in one value, and how deeply one
/// Cypher expression may nest. Safety code, not a knob: everything that
/// walks a value or an expression recurses, so the codec
/// ([`crate::codec::decode_value`]), the store ([`Value::is_storable`])
/// and the query parser refuse deeper input with a typed error instead of
/// exhausting the stack of the thread that reads it. At 64 a parse at
/// the bound fits a 2 MiB thread stack even in an unoptimised build.
pub const MAX_NESTING: usize = 64;

/// A graph value.
///
/// `Node` and `Rel` variants let query bindings and transition variables
/// (`NEW`, `NEWNODES`, …) carry graph items by reference; property values
/// stored in the graph are restricted to the scalar/list/map subset (see
/// [`Value::is_storable`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    /// A calendar date, stored as days since the Unix epoch.
    Date(i64),
    /// A timestamp, stored as milliseconds since the Unix epoch.
    DateTime(i64),
    List(Vec<Value>),
    Map(BTreeMap<String, Value>),
    Node(NodeId),
    Rel(RelId),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Construct a list value.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// Construct a map value from `(key, value)` pairs.
    pub fn map(entries: impl IntoIterator<Item = (String, Value)>) -> Value {
        Value::Map(entries.into_iter().collect())
    }

    /// `true` when this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether the value may be stored as a property. Graph items (`Node`,
    /// `Rel`) and maps containing them are query-time-only values, as in
    /// Neo4j; lists and maps nested deeper than [`MAX_NESTING`] would not
    /// decode again from the WAL.
    pub fn is_storable(&self) -> bool {
        self.storable_within(MAX_NESTING)
    }

    /// Whether lists and maps open at most `levels` deep in this value.
    /// Recurses no deeper than `levels + 1`, however deep the value is.
    pub fn nests_within(&self, levels: usize) -> bool {
        match self {
            Value::List(items) => levels > 0 && items.iter().all(|v| v.nests_within(levels - 1)),
            Value::Map(m) => levels > 0 && m.values().all(|v| v.nests_within(levels - 1)),
            _ => true,
        }
    }

    /// [`Value::is_storable`] with `levels` more lists/maps allowed to open.
    fn storable_within(&self, levels: usize) -> bool {
        match self {
            Value::Node(_) | Value::Rel(_) => false,
            Value::List(items) => levels > 0 && items.iter().all(|v| v.storable_within(levels - 1)),
            Value::Map(m) => levels > 0 && m.values().all(|v| v.storable_within(levels - 1)),
            _ => true,
        }
    }

    /// Truthiness for `WHERE`: only `Bool(true)` passes; `NULL` and
    /// everything else does not.
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// The Cypher type name of the value (used in error messages and by the
    /// schema validator).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Bool(_) => "BOOLEAN",
            Value::Int(_) => "INTEGER",
            Value::Float(_) => "FLOAT",
            Value::Str(_) => "STRING",
            Value::Date(_) => "DATE",
            Value::DateTime(_) => "DATETIME",
            Value::List(_) => "LIST",
            Value::Map(_) => "MAP",
            Value::Node(_) => "NODE",
            Value::Rel(_) => "RELATIONSHIP",
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Map(_) => 0,
            Value::Node(_) => 1,
            Value::Rel(_) => 2,
            Value::List(_) => 3,
            Value::Str(_) => 4,
            Value::Bool(_) => 5,
            Value::Int(_) | Value::Float(_) => 6,
            Value::Date(_) => 7,
            Value::DateTime(_) => 8,
            Value::Null => 9,
        }
    }

    /// The one total value order, and the one grouping equivalence: two
    /// values are one group exactly when it ties them. By type rank, then
    /// content: numbers by exact value (`1` ties `1.0`, `2⁵³ + 1` is above
    /// `2⁵³.0`), `NaN` after every number and tied only with `NaN`, lists
    /// and maps element-wise, `NULL` last (as in Cypher's `ORDER BY`).
    pub fn cmp_order(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a
                .partial_cmp(b)
                .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan())),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (DateTime(a), DateTime(b)) => a.cmp(b),
            (Node(a), Node(b)) => a.cmp(b),
            (Rel(a), Rel(b)) => a.cmp(b),
            (List(a), List(b)) => a.iter().map(OrderKey).cmp(b.iter().map(OrderKey)),
            // `BTreeMap` keys come sorted: keys first, then the values in
            // key order.
            (Map(a), Map(b)) => a
                .keys()
                .cmp(b.keys())
                .then_with(|| a.values().map(OrderKey).cmp(b.values().map(OrderKey))),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    /// Three-valued equality: `None` when either side is `NULL`.
    pub fn eq3(&self, other: &Value) -> Option<bool> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Float(b)) => Some((*a as f64) == *b),
            (Float(a), Int(b)) => Some(*a == (*b as f64)),
            (a, b) => Some(a == b),
        }
    }

    /// Three-valued ordering comparison; `None` when either side is `NULL`
    /// or the values are not order-comparable (mixed non-numeric types).
    pub fn cmp3(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (DateTime(a), DateTime(b)) => Some(a.cmp(b)),
            (List(_), List(_)) => Some(self.cmp_order(other)),
            _ => None,
        }
    }

    /// Cypher `+`: numeric addition, string concatenation, list
    /// concatenation, and date/datetime + integer (days / milliseconds).
    pub fn add(&self, other: &Value) -> Option<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Some(Null),
            (Int(a), Int(b)) => Some(Int(a.wrapping_add(*b))),
            (Int(a), Float(b)) => Some(Float(*a as f64 + b)),
            (Float(a), Int(b)) => Some(Float(a + *b as f64)),
            (Float(a), Float(b)) => Some(Float(a + b)),
            (Str(a), Str(b)) => Some(Str(format!("{a}{b}"))),
            (Str(a), b) => Some(Str(format!("{a}{b}"))),
            (a, Str(b)) => Some(Str(format!("{a}{b}"))),
            (List(a), List(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().cloned());
                Some(List(out))
            }
            (List(a), b) => {
                let mut out = a.clone();
                out.push(b.clone());
                Some(List(out))
            }
            (Date(a), Int(b)) => Some(Date(a + b)),
            (DateTime(a), Int(b)) => Some(DateTime(a + b)),
            _ => None,
        }
    }

    /// Cypher `-` (numeric and date arithmetic).
    pub fn sub(&self, other: &Value) -> Option<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Some(Null),
            (Int(a), Int(b)) => Some(Int(a.wrapping_sub(*b))),
            (Int(a), Float(b)) => Some(Float(*a as f64 - b)),
            (Float(a), Int(b)) => Some(Float(a - *b as f64)),
            (Float(a), Float(b)) => Some(Float(a - b)),
            (Date(a), Int(b)) => Some(Date(a - b)),
            (Date(a), Date(b)) => Some(Int(a - b)),
            (DateTime(a), Int(b)) => Some(DateTime(a - b)),
            (DateTime(a), DateTime(b)) => Some(Int(a - b)),
            _ => None,
        }
    }

    /// Cypher `*`.
    pub fn mul(&self, other: &Value) -> Option<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Some(Null),
            (Int(a), Int(b)) => Some(Int(a.wrapping_mul(*b))),
            (Int(a), Float(b)) => Some(Float(*a as f64 * b)),
            (Float(a), Int(b)) => Some(Float(a * *b as f64)),
            (Float(a), Float(b)) => Some(Float(a * b)),
            _ => None,
        }
    }

    /// Cypher `/`. Integer division truncates as in Cypher; division of an
    /// integer by zero yields `None` (a runtime error at the query layer),
    /// while float division by zero follows IEEE 754.
    pub fn div(&self, other: &Value) -> Option<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Some(Null),
            (Int(_), Int(0)) => None,
            (Int(a), Int(b)) => Some(Int(a / b)),
            (Int(a), Float(b)) => Some(Float(*a as f64 / b)),
            (Float(a), Int(b)) => Some(Float(a / *b as f64)),
            (Float(a), Float(b)) => Some(Float(a / b)),
            _ => None,
        }
    }

    /// Cypher `%` (modulo).
    pub fn modulo(&self, other: &Value) -> Option<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Some(Null),
            (Int(_), Int(0)) => None,
            (Int(a), Int(b)) => Some(Int(a % b)),
            (Float(a), Float(b)) => Some(Float(a % b)),
            (Int(a), Float(b)) => Some(Float(*a as f64 % b)),
            (Float(a), Int(b)) => Some(Float(a % *b as f64)),
            _ => None,
        }
    }

    /// Unary minus.
    pub fn neg(&self) -> Option<Value> {
        match self {
            Value::Null => Some(Value::Null),
            Value::Int(a) => Some(Value::Int(-a)),
            Value::Float(a) => Some(Value::Float(-a)),
            _ => None,
        }
    }

    /// Coerce to f64 when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Coerce to i64 when an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Borrow as a string when a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a list when a list value.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }
}

/// `i` against `f` by exact value, with no lossy `as f64`; `NaN` is
/// above every integer.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        return Ordering::Less;
    }
    // `as i128` is exact on the integral part of every float below 2¹²⁷
    // in magnitude and saturates beyond it (infinities too), still past
    // every i64.
    let whole = i128::from(i).cmp(&(f.trunc() as i128));
    whole.then_with(|| 0.0f64.partial_cmp(&f.fract()).expect("finite"))
}

/// A value (`V = Value`) or a borrowed one (`V = &Value`) ordered, and
/// made equal, by [`Value::cmp_order`]: the key of the ordered sets and
/// maps that group, deduplicate and sort values.
#[derive(Debug, Clone)]
pub struct OrderKey<V: Borrow<Value> = Value>(pub V);

impl<V: Borrow<Value>> Ord for OrderKey<V> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.borrow().cmp_order(other.0.borrow())
    }
}

impl<V: Borrow<Value>> PartialOrd for OrderKey<V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<V: Borrow<Value>> PartialEq for OrderKey<V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<V: Borrow<Value>> Eq for OrderKey<V> {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "date({d})"),
            Value::DateTime(t) => write!(f, "datetime({t})"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Node(n) => write!(f, "({n})"),
            Value::Rel(r) => write!(f, "[{r}]"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<NodeId> for Value {
    fn from(n: NodeId) -> Self {
        Value::Node(n)
    }
}
impl From<RelId> for Value {
    fn from(r: RelId) -> Self {
        Value::Rel(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(Value::Null.add(&Value::Int(1)), Some(Value::Null));
        assert_eq!(Value::Int(1).sub(&Value::Null), Some(Value::Null));
        assert_eq!(Value::Null.mul(&Value::Null), Some(Value::Null));
        assert_eq!(Value::Float(2.0).div(&Value::Null), Some(Value::Null));
    }

    #[test]
    fn numeric_promotion() {
        assert_eq!(
            Value::Int(1).add(&Value::Float(0.5)),
            Some(Value::Float(1.5))
        );
        assert_eq!(
            Value::Float(3.0).mul(&Value::Int(2)),
            Some(Value::Float(6.0))
        );
        assert_eq!(Value::Int(7).div(&Value::Int(2)), Some(Value::Int(3)));
        assert_eq!(
            Value::Int(7).div(&Value::Float(2.0)),
            Some(Value::Float(3.5))
        );
    }

    #[test]
    fn integer_division_by_zero_is_error() {
        assert_eq!(Value::Int(1).div(&Value::Int(0)), None);
        assert_eq!(Value::Int(1).modulo(&Value::Int(0)), None);
    }

    #[test]
    fn string_concatenation() {
        assert_eq!(
            Value::str("a").add(&Value::str("b")),
            Some(Value::str("ab"))
        );
        assert_eq!(
            Value::str("n=").add(&Value::Int(3)),
            Some(Value::str("n=3"))
        );
    }

    #[test]
    fn list_concatenation_and_append() {
        let l = Value::list([Value::Int(1)]);
        assert_eq!(
            l.add(&Value::list([Value::Int(2)])),
            Some(Value::list([Value::Int(1), Value::Int(2)]))
        );
        assert_eq!(
            l.add(&Value::Int(9)),
            Some(Value::list([Value::Int(1), Value::Int(9)]))
        );
    }

    #[test]
    fn date_arithmetic() {
        assert_eq!(Value::Date(10).add(&Value::Int(5)), Some(Value::Date(15)));
        assert_eq!(Value::Date(10).sub(&Value::Date(4)), Some(Value::Int(6)));
        assert_eq!(
            Value::DateTime(1000).sub(&Value::DateTime(400)),
            Some(Value::Int(600))
        );
    }

    #[test]
    fn three_valued_equality() {
        assert_eq!(Value::Null.eq3(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).eq3(&Value::Float(1.0)), Some(true));
        assert_eq!(Value::str("x").eq3(&Value::str("y")), Some(false));
    }

    #[test]
    fn three_valued_comparison() {
        assert_eq!(Value::Int(1).cmp3(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(Value::Int(1).cmp3(&Value::Null), None);
        assert_eq!(Value::str("a").cmp3(&Value::Int(1)), None);
        assert_eq!(
            Value::Float(1.5).cmp3(&Value::Int(1)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn order_puts_null_last_and_is_total() {
        let mut vs = vec![
            Value::Null,
            Value::Int(2),
            Value::str("b"),
            Value::Float(1.5),
            Value::Bool(true),
            Value::str("a"),
        ];
        vs.sort_by(|a, b| a.cmp_order(b));
        assert_eq!(
            vs,
            vec![
                Value::str("a"),
                Value::str("b"),
                Value::Bool(true),
                Value::Float(1.5),
                Value::Int(2),
                Value::Null,
            ]
        );
    }

    /// Scalars where a partial or lossy order breaks: `NaN`, signed zero,
    /// infinities, and integers beside the floats they round to (±2⁵³,
    /// `i64::MAX` → 2⁶³).
    fn edge_scalars() -> Vec<Value> {
        let two53 = 1i64 << 53;
        let mut vs: Vec<Value> = [0, 1, -1, two53 - 1, two53, two53 + 1, -two53 - 1]
            .into_iter()
            .chain([i64::MIN, i64::MAX])
            .map(Value::Int)
            .collect();
        let floats = [0.0, -0.0, 1.0, 0.5, -1.5, two53 as f64, -(two53 as f64)];
        let more = [2f64.powi(63), -(2f64.powi(63)), f64::INFINITY];
        let more = more.into_iter().chain([f64::NEG_INFINITY, f64::NAN]);
        vs.extend(floats.into_iter().chain(more).map(Value::Float));
        vs.extend([
            Value::str("a"),
            Value::Bool(true),
            Value::Null,
            Value::Date(1),
        ]);
        vs
    }

    fn order_value() -> BoxedStrategy<Value> {
        let pool = edge_scalars();
        let scalar = (0..pool.len()).prop_map(move |i| pool[i].clone()).boxed();
        prop_oneof![
            scalar.clone(),
            scalar.clone(),
            prop::collection::vec(scalar.clone(), 0..3).prop_map(Value::List),
            prop::collection::vec(("[ab]", scalar), 0..3).prop_map(Value::map),
        ]
        .boxed()
    }

    /// `cmp_order` is a total order: reflexive (`NaN` too), antisymmetric
    /// and transitive — checked exhaustively on the edge scalars, where a
    /// `NaN` that ties everything or an `as f64` comparison breaks it.
    #[test]
    fn order_laws_hold_on_every_edge_triple() {
        let vs = edge_scalars();
        for a in &vs {
            assert!(a.cmp_order(a).is_eq(), "{a:?}");
            for b in &vs {
                assert_eq!(a.cmp_order(b), b.cmp_order(a).reverse(), "{a:?} {b:?}");
                for c in &vs {
                    if a.cmp_order(b).is_le() && b.cmp_order(c).is_le() {
                        assert!(a.cmp_order(c).is_le(), "{a:?} <= {b:?} <= {c:?}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The same laws on every triple drawn from generated scalars,
        /// lists and maps.
        #[test]
        fn order_laws_hold_on_generated_triples(
            vs in prop::collection::vec(order_value(), 1..10),
        ) {
            for a in &vs {
                prop_assert!(a.cmp_order(a).is_eq(), "{:?}", a);
                for b in &vs {
                    prop_assert_eq!(a.cmp_order(b), b.cmp_order(a).reverse());
                    for c in &vs {
                        if a.cmp_order(b).is_le() && b.cmp_order(c).is_le() {
                            prop_assert!(a.cmp_order(c).is_le(), "{:?} <= {:?} <= {:?}", a, b, c);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn storability() {
        assert!(Value::Int(1).is_storable());
        assert!(Value::list([Value::str("x")]).is_storable());
        assert!(!Value::Node(NodeId(1)).is_storable());
        assert!(!Value::list([Value::Rel(RelId(1))]).is_storable());
        let nested = |depth| (0..depth).fold(Value::Int(1), |v, _| Value::list([v]));
        assert!(nested(MAX_NESTING).is_storable());
        assert!(!nested(MAX_NESTING + 1).is_storable());
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(1).is_truthy());
    }

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(
            Value::list([Value::Int(1), Value::str("a")]).to_string(),
            "[1, a]"
        );
        assert_eq!(
            Value::map([("k".to_string(), Value::Int(1))]).to_string(),
            "{k: 1}"
        );
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
    }
}
