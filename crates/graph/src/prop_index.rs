//! Index keys: how property values normalize into the ordered key space
//! of a [`crate::composite::CompositeIndex`].
//!
//! ## Equality semantics
//!
//! An index must agree *exactly* with Cypher's three-valued equality
//! ([`Value::eq3`]), which compares `INTEGER` and `FLOAT` numerically
//! (`1 = 1.0` is `true`). Values are therefore normalized into an
//! [`IndexKey`] before storage and lookup: integral floats collapse onto
//! the integer key, non-integral floats key on their exact bit pattern
//! (with `-0.0` already normalized away as integral), and `NaN` — equal to
//! nothing, including itself — is never stored.
//!
//! Because `i64 ↔ f64` conversion is lossy at and beyond ±2⁵³, `eq3` is
//! not transitive out there (two distinct large integers can both "equal"
//! the same float), so no faithful equality key exists for that range. Such
//! values are simply **not indexed**, and a lookup *for* them is refused,
//! forcing the planner back to a filtered scan. The same applies to
//! `LIST`/`MAP` values. In-range lookups stay complete: an in-range scalar
//! can never `eq3`-equal an out-of-range one.
//!
//! ## Range semantics
//!
//! [`IndexKey`] carries a hand-written [`Ord`] that is [`Value::cmp_order`]
//! on keys: families rank as that order ranks types (strings < booleans <
//! numerics < dates < datetimes), and the two numeric variants sort
//! **numerically interleaved** (`Int(1) < FloatBits(1.5) < Int(2)`), so one
//! ordered walk answers `<`/`<=`/`>`/`>=` pushdowns in O(log n + k) and the
//! key space is the `ORDER BY` order. Each family occupies a disjoint,
//! contiguous key region, matching [`Value::cmp3`]'s refusal to compare
//! across types.
//!
//! Range scans have one completeness hazard equality scans do not: a stored
//! numeric *outside* ±2⁵³ is absent from the index yet **can** satisfy a
//! range predicate (`x > 0` matches `2⁵³ + 1`) — see the refusal rules of
//! [`crate::composite`].

use crate::value::Value;
use std::cmp::Ordering;
use std::ops::Bound;

/// Exactly representable integer range of `f64`: strictly inside ±2⁵³,
/// `Int`/`Float` cross-type equality is loss-free and a canonical key
/// exists. The bound itself is excluded: `2⁵³ as f64` also equals
/// `2⁵³ + 1 as f64` under lossy conversion, so keys at the boundary would
/// not be faithful to [`Value::eq3`].
const SAFE_INT: i64 = 1 << 53;

/// The canonical key an indexed property value maps to, ordered as
/// [`Value::cmp_order`] orders the values it keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexKey {
    Bool(bool),
    /// Integers and integral floats in the ±2⁵³ exact range.
    Int(i64),
    /// Non-integral (or infinite) floats, keyed by exact bit pattern.
    FloatBits(u64),
    Str(String),
    Date(i64),
    DateTime(i64),
}

impl IndexKey {
    /// Family rank, [`Value::cmp_order`]'s type rank: strings < booleans <
    /// numerics < dates < datetimes. `Int` and `FloatBits` share a rank —
    /// they interleave numerically.
    pub(crate) fn family(&self) -> u8 {
        match self {
            IndexKey::Str(_) => 0,
            IndexKey::Bool(_) => 1,
            IndexKey::Int(_) | IndexKey::FloatBits(_) => 2,
            IndexKey::Date(_) => 3,
            IndexKey::DateTime(_) => 4,
        }
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        use IndexKey::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            // Keyable ints are strictly inside ±2⁵³, so `as f64` is exact;
            // FloatBits never holds NaN, so partial_cmp is total. A
            // FloatBits value (non-integral or infinite) can never equal an
            // Int key numerically, keeping Ord consistent with Eq.
            (Int(a), FloatBits(b)) => (*a as f64)
                .partial_cmp(&f64::from_bits(*b))
                .expect("no NaN"),
            (FloatBits(a), Int(b)) => f64::from_bits(*a)
                .partial_cmp(&(*b as f64))
                .expect("no NaN"),
            (FloatBits(a), FloatBits(b)) => f64::from_bits(*a)
                .partial_cmp(&f64::from_bits(*b))
                .expect("no NaN"),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (DateTime(a), DateTime(b)) => a.cmp(b),
            (a, b) => a.family().cmp(&b.family()),
        }
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl IndexKey {
    /// Normalize a value into its index key.
    ///
    /// `None` means the value has no faithful equality key and must stay
    /// out of the index: `NULL` and `NaN` (equal to nothing), graph items
    /// (not storable anyway), `LIST`/`MAP` (structural equality), and
    /// numerics beyond ±2⁵³ (lossy cross-type equality, see module docs).
    pub fn from_value(v: &Value) -> Option<IndexKey> {
        match v {
            Value::Bool(b) => Some(IndexKey::Bool(*b)),
            Value::Int(i) if (-SAFE_INT < *i && *i < SAFE_INT) => Some(IndexKey::Int(*i)),
            Value::Float(f) => {
                if f.is_nan() {
                    None
                } else if f.is_infinite() {
                    Some(IndexKey::FloatBits(f.to_bits()))
                } else if f.fract() == 0.0 {
                    if f.abs() < SAFE_INT as f64 {
                        // covers -0.0 → Int(0)
                        Some(IndexKey::Int(*f as i64))
                    } else {
                        None
                    }
                } else {
                    Some(IndexKey::FloatBits(f.to_bits()))
                }
            }
            Value::Str(s) => Some(IndexKey::Str(s.clone())),
            Value::Date(d) => Some(IndexKey::Date(*d)),
            Value::DateTime(t) => Some(IndexKey::DateTime(*t)),
            Value::Int(_)
            | Value::Null
            | Value::List(_)
            | Value::Map(_)
            | Value::Node(_)
            | Value::Rel(_) => None,
        }
    }

    /// Whether an equality lookup for an unkeyable `v` can still be
    /// answered (with the empty set) because `v` `eq3`-equals no storable
    /// value: `NULL` (never equal), `NaN` (never equal), graph items (not
    /// storable). `LIST`/`MAP`/large numerics return `false` — they can
    /// equal stored values the index does not cover.
    pub(crate) fn never_matches(v: &Value) -> bool {
        match v {
            Value::Null | Value::Node(_) | Value::Rel(_) => true,
            Value::Float(f) => f.is_nan(),
            _ => false,
        }
    }

    /// Whether a stored value is a *lossy numeric*: unkeyable, yet able to
    /// satisfy ordering predicates ([`Value::cmp3`] orders it against other
    /// numbers). While any such value is present under an indexed
    /// `(label, key)`, numeric range scans must fall back to full scans.
    pub(crate) fn is_lossy_numeric(v: &Value) -> bool {
        match v {
            Value::Int(i) => *i <= -SAFE_INT || *i >= SAFE_INT,
            // every finite f64 with |f| ≥ 2⁵³ is integral, hence unkeyable;
            // NaN is unkeyable too but satisfies no ordering predicate.
            Value::Float(f) => f.is_finite() && f.abs() >= SAFE_INT as f64,
            _ => false,
        }
    }
}

/// Smallest key of a family (inclusive frontier).
pub(crate) fn family_min(fam: u8) -> IndexKey {
    match fam {
        0 => IndexKey::Str(String::new()),
        1 => IndexKey::Bool(false),
        2 => IndexKey::FloatBits(f64::NEG_INFINITY.to_bits()),
        3 => IndexKey::Date(i64::MIN),
        _ => IndexKey::DateTime(i64::MIN),
    }
}

/// Largest key of a family. Strings have no maximum, so the Str frontier is
/// "everything below the smallest Bool key".
pub(crate) fn family_max(fam: u8) -> Bound<IndexKey> {
    match fam {
        0 => Bound::Excluded(IndexKey::Bool(false)),
        1 => Bound::Included(IndexKey::Bool(true)),
        2 => Bound::Included(IndexKey::FloatBits(f64::INFINITY.to_bits())),
        3 => Bound::Included(IndexKey::Date(i64::MAX)),
        _ => Bound::Included(IndexKey::DateTime(i64::MAX)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_normalization_matches_eq3() {
        // 1 and 1.0 share a key, mirroring `eq3`.
        assert_eq!(
            IndexKey::from_value(&Value::Int(1)),
            IndexKey::from_value(&Value::Float(1.0))
        );
        // -0.0 and 0 share a key.
        assert_eq!(
            IndexKey::from_value(&Value::Float(-0.0)),
            IndexKey::from_value(&Value::Int(0))
        );
        // non-integral floats key on bits
        assert_eq!(
            IndexKey::from_value(&Value::Float(1.5)),
            Some(IndexKey::FloatBits(1.5f64.to_bits()))
        );
        // NaN and out-of-range integers are unkeyable
        assert_eq!(IndexKey::from_value(&Value::Float(f64::NAN)), None);
        assert_eq!(IndexKey::from_value(&Value::Int(i64::MAX)), None);
        assert_eq!(IndexKey::from_value(&Value::Float(1e300)), None);
        // the ±2^53 boundary itself is unkeyable on BOTH sides: eq3 is
        // lossy there (2^53 + 1 as f64 == 2^53 as f64), so Int(2^53) and
        // Float(2^53.0) must fall back to a scan rather than key
        // differently from the values they eq3-equal.
        let bound = 1i64 << 53;
        assert_eq!(IndexKey::from_value(&Value::Int(bound)), None);
        assert_eq!(IndexKey::from_value(&Value::Int(-bound)), None);
        assert_eq!(IndexKey::from_value(&Value::Float(bound as f64)), None);
        assert!(IndexKey::from_value(&Value::Int(bound - 1)).is_some());
        assert_eq!(
            IndexKey::from_value(&Value::Float((bound - 1) as f64)),
            IndexKey::from_value(&Value::Int(bound - 1))
        );
        // infinities are self-equal and keyable
        assert!(IndexKey::from_value(&Value::Float(f64::INFINITY)).is_some());
    }

    #[test]
    fn key_order_interleaves_numerics() {
        // The BTreeMap key order must match numeric order across the
        // Int/FloatBits split, with -inf/+inf at the family frontier.
        let keys = [
            IndexKey::Str(String::new()),
            IndexKey::Str("a".into()),
            IndexKey::Bool(true),
            IndexKey::FloatBits(f64::NEG_INFINITY.to_bits()),
            IndexKey::FloatBits((-1.5f64).to_bits()),
            IndexKey::Int(-1),
            IndexKey::Int(0),
            IndexKey::FloatBits(0.5f64.to_bits()),
            IndexKey::Int(1),
            IndexKey::FloatBits(1.5f64.to_bits()),
            IndexKey::Int(2),
            IndexKey::FloatBits(f64::INFINITY.to_bits()),
            IndexKey::Date(i64::MIN),
            IndexKey::Date(3),
            IndexKey::DateTime(i64::MIN),
        ];
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
    }
}
