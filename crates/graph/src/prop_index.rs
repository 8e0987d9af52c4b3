//! Property indexes: `(label, key, value)` → item set, with ordered range
//! and prefix scans.
//!
//! The PG-Trigger engine evaluates trigger conditions as Cypher pattern
//! matches on every activating statement, so predicates like
//! `(:Hospital {name: 'Sacco'})` or `occupancy >= 0.95` (paper §6) sit on
//! the hottest path of the engine. A [`PropIndex`] gives equality *and*
//! range/prefix predicates an index-backed access path; the candidate
//! planner in `pg-cypher` consults it through [`crate::GraphView::probe`].
//! A [`RelPropIndex`] provides the same for relationships keyed by type.
//!
//! ## Equality semantics
//!
//! The index must agree *exactly* with Cypher's three-valued equality
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
//! values are simply **not indexed**, and [`PropIndex::lookup`] refuses to
//! answer for them (returns `None`), forcing the planner back to a filtered
//! scan. The same applies to `LIST`/`MAP` values. In-range lookups stay
//! complete: an in-range scalar can never `eq3`-equal an out-of-range one.
//!
//! ## Range semantics
//!
//! [`IndexKey`] carries a hand-written [`Ord`] that sorts the two numeric
//! variants **numerically interleaved** (`Int(1) < FloatBits(1.5) <
//! Int(2)`), so one `BTreeMap::range` walk answers `<`/`<=`/`>`/`>=`
//! pushdowns in O(log n + k). Non-numeric families (booleans, strings,
//! dates, datetimes) occupy disjoint, contiguous key regions matching
//! [`Value::cmp3`]'s refusal to compare across types.
//!
//! Range scans have one completeness hazard equality scans do not: a stored
//! numeric *outside* ±2⁵³ is absent from the index yet **can** satisfy a
//! range predicate (`x > 0` matches `2⁵³ + 1`). Each `(label, key)` entry
//! therefore counts its currently-present lossy numerics, and
//! [`PropIndex::range_lookup`] refuses to answer numeric ranges (returns
//! `None` → planner falls back to a scan) while that count is non-zero.
//! String/date/boolean ranges and prefix scans are unaffected: every value
//! of those families is keyable.

use crate::ids::{NodeId, RelId};
use crate::pmap::{PMap, PSet};
use crate::record::{NodeRecord, RelRecord};
use crate::stats::Histogram;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

/// Exactly representable integer range of `f64`: strictly inside ±2⁵³,
/// `Int`/`Float` cross-type equality is loss-free and a canonical key
/// exists. The bound itself is excluded: `2⁵³ as f64` also equals
/// `2⁵³ + 1 as f64` under lossy conversion, so keys at the boundary would
/// not be faithful to [`Value::eq3`].
const SAFE_INT: i64 = 1 << 53;

/// The canonical key an indexed property value maps to, totally ordered
/// consistently with [`Value::cmp3`] within each comparable family.
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
    /// Family rank: booleans < numerics < strings < dates < datetimes.
    /// `Int` and `FloatBits` share a rank — they interleave numerically.
    pub(crate) fn family(&self) -> u8 {
        match self {
            IndexKey::Bool(_) => 0,
            IndexKey::Int(_) | IndexKey::FloatBits(_) => 1,
            IndexKey::Str(_) => 2,
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

/// One `(label, key)` index: ordered value keys, the count of present
/// lossy numerics (see module docs, "Range semantics"), and cardinality
/// statistics (entry totals plus an equi-depth [`Histogram`]) maintained
/// through the same insert/remove calls — hence through every undo path.
#[derive(Debug, Clone)]
struct IndexEntries<Id> {
    keys: PMap<IndexKey, PSet<Id>>,
    lossy_numerics: usize,
    /// Items whose value is storable yet unkeyable for reasons other than
    /// lossy numerics (`NaN`, `LIST`, `MAP`). While non-zero, ordered walks
    /// over the key space would be incomplete and are refused.
    unkeyable: usize,
    /// Number of keyable entries currently indexed (`Σ bucket sizes`).
    total: usize,
    /// Equi-depth histogram over the key space (planning estimates).
    hist: Histogram,
}

impl<Id> Default for IndexEntries<Id> {
    fn default() -> Self {
        IndexEntries {
            keys: PMap::new(),
            lossy_numerics: 0,
            unkeyable: 0,
            total: 0,
            hist: Histogram::default(),
        }
    }
}

/// How a range query classifies against one index entry.
enum RangeQuery {
    /// No value can satisfy the predicate — definitively empty.
    Empty,
    /// The index cannot answer faithfully — fall back to a scan.
    Refused,
    /// Walk the key space between these bounds.
    Bounds(Bound<IndexKey>, Bound<IndexKey>),
}

impl<Id> IndexEntries<Id> {
    /// Shared classification for [`KeyedIndex::range_lookup`] and the
    /// count-only probes: resolve value bounds into key bounds, apply the
    /// family rules and the lossy-numeric opt-out.
    fn classify_range(&self, lower: Bound<&Value>, upper: Bound<&Value>) -> RangeQuery {
        // Classify each bound: Ok(key-bound) | Err(true)=definitively-empty
        // | Err(false)=unanswerable.
        let classify = |b: Bound<&Value>| -> Result<Bound<IndexKey>, bool> {
            match b {
                Bound::Unbounded => Ok(Bound::Unbounded),
                Bound::Included(v) | Bound::Excluded(v) => match IndexKey::from_value(v) {
                    Some(ik) => Ok(match b {
                        Bound::Included(_) => Bound::Included(ik),
                        _ => Bound::Excluded(ik),
                    }),
                    // NULL/NaN/graph-item bounds compare to nothing.
                    None if IndexKey::never_matches(v) => Err(true),
                    // cmp3 never orders maps against anything either.
                    None if matches!(v, Value::Map(_)) => Err(true),
                    None => Err(false),
                },
            }
        };
        let lo = match classify(lower) {
            Ok(b) => b,
            Err(true) => return RangeQuery::Empty,
            Err(false) => return RangeQuery::Refused,
        };
        let hi = match classify(upper) {
            Ok(b) => b,
            Err(true) => return RangeQuery::Empty,
            Err(false) => return RangeQuery::Refused,
        };
        // The family the predicate constrains values to (cmp3 returns NULL
        // across families). Both-unbounded is not a range predicate.
        let fam = match (&lo, &hi) {
            (Bound::Included(k) | Bound::Excluded(k), Bound::Unbounded)
            | (Bound::Unbounded, Bound::Included(k) | Bound::Excluded(k)) => k.family(),
            (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
                if a.family() != b.family() {
                    // e.g. `> 1 AND < 'z'`: no value is comparable to both.
                    return RangeQuery::Empty;
                }
                a.family()
            }
            (Bound::Unbounded, Bound::Unbounded) => return RangeQuery::Refused,
        };
        // Numeric ranges are incomplete while lossy numerics are present.
        if fam == IndexKey::Int(0).family() && self.lossy_numerics > 0 {
            return RangeQuery::Refused;
        }
        // Close unbounded sides at the family frontier so the walk never
        // leaves the predicate's type family.
        let lo = match lo {
            Bound::Unbounded => family_min(fam),
            b => b,
        };
        let hi = match hi {
            Bound::Unbounded => family_max(fam),
            b => b,
        };
        // An inverted range would make BTreeMap::range panic.
        if range_is_empty(&lo, &hi) {
            return RangeQuery::Empty;
        }
        RangeQuery::Bounds(lo, hi)
    }
}

/// The per-label map of a [`KeyedIndex`]: key → `Arc`-shared entry.
type KeyMap<Id> = HashMap<String, Arc<IndexEntries<Id>>>;

/// The generic `(label, key, value) → item set` index shared by node
/// indexes ([`PropIndex`], label = node label) and relationship indexes
/// ([`RelPropIndex`], label = relationship type).
#[derive(Debug, Clone)]
pub struct KeyedIndex<Id> {
    /// label → key → value-key → item set. Entries are `Arc`-shared so a
    /// copy-on-write clone of the whole index (every published commit
    /// boundary) bumps refcounts instead of deep-copying per-entry
    /// statistics; mutators go through [`Arc::make_mut`].
    by_label: Arc<HashMap<String, KeyMap<Id>>>,
    /// Number of `(label, key)` indexes; cheap emptiness check for the
    /// mutation fast path.
    count: usize,
}

impl<Id> Default for KeyedIndex<Id> {
    fn default() -> Self {
        KeyedIndex {
            by_label: Arc::new(HashMap::new()),
            count: 0,
        }
    }
}

impl<Id: Ord + Copy> KeyedIndex<Id> {
    /// `true` when no index exists (mutation fast path).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Declare an index on `(label, key)`. Returns `false` when it already
    /// exists. The caller (the store) populates it from the live extent.
    pub fn create(&mut self, label: &str, key: &str) -> bool {
        let keys = Arc::make_mut(&mut self.by_label)
            .entry(label.to_string())
            .or_default();
        if keys.contains_key(key) {
            return false;
        }
        keys.insert(key.to_string(), Arc::new(IndexEntries::default()));
        self.count += 1;
        true
    }

    /// Drop the index on `(label, key)`; `false` when absent.
    pub fn drop_index(&mut self, label: &str, key: &str) -> bool {
        let by_label = Arc::make_mut(&mut self.by_label);
        let Some(keys) = by_label.get_mut(label) else {
            return false;
        };
        if keys.remove(key).is_none() {
            return false;
        }
        if keys.is_empty() {
            by_label.remove(label);
        }
        self.count -= 1;
        true
    }

    /// Whether `(label, key)` is indexed.
    pub fn is_indexed(&self, label: &str, key: &str) -> bool {
        self.by_label
            .get(label)
            .is_some_and(|keys| keys.contains_key(key))
    }

    /// All `(label, key)` index definitions, sorted.
    pub fn definitions(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .by_label
            .iter()
            .flat_map(|(l, keys)| keys.keys().map(move |k| (l.clone(), k.clone())))
            .collect();
        out.sort();
        out
    }

    /// The property keys indexed under `label`.
    pub fn keys_for_label(&self, label: &str) -> Vec<String> {
        self.by_label
            .get(label)
            .map(|keys| keys.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Add one `(label, key, value) → item` entry (no-op when `(label,
    /// key)` is not indexed; lossy numerics bump the range opt-out count).
    /// Statistics (totals, histogram) are maintained here, so every undo
    /// path that replays inserts keeps them consistent automatically.
    pub fn insert(&mut self, label: &str, key: &str, value: &Value, item: Id) {
        // Coverage check before touching the shared map: uncovered labels
        // (the common case on mixed workloads) must not force a
        // copy-on-write of the outer tables.
        if !self.is_indexed(label, key) {
            return;
        }
        if let Some(entries) = Arc::make_mut(&mut self.by_label)
            .get_mut(label)
            .and_then(|keys| keys.get_mut(key))
        {
            let entries = Arc::make_mut(entries);
            if let Some(ik) = IndexKey::from_value(value) {
                if entries.keys.get_or_default(ik.clone()).insert(item) {
                    entries.total += 1;
                    entries.hist.note_insert(&ik);
                    if entries.hist.stale(entries.total) {
                        entries.hist.rebuild_from(
                            entries.keys.iter().map(|(k, s)| (k, s.len())),
                            entries.total,
                        );
                    }
                }
            } else if IndexKey::is_lossy_numeric(value) {
                entries.lossy_numerics += 1;
            } else {
                entries.unkeyable += 1;
            }
        }
    }

    /// Remove one entry (exact inverse of [`KeyedIndex::insert`]).
    pub fn remove(&mut self, label: &str, key: &str, value: &Value, item: Id) {
        if !self.is_indexed(label, key) {
            return;
        }
        if let Some(entries) = Arc::make_mut(&mut self.by_label)
            .get_mut(label)
            .and_then(|keys| keys.get_mut(key))
        {
            let entries = Arc::make_mut(entries);
            if let Some(ik) = IndexKey::from_value(value) {
                if let Some(set) = entries.keys.get_mut(&ik) {
                    if set.remove(&item) {
                        entries.total = entries.total.saturating_sub(1);
                        entries.hist.note_remove(&ik);
                    }
                    if set.is_empty() {
                        entries.keys.remove(&ik);
                    }
                    if entries.hist.stale(entries.total) {
                        entries.hist.rebuild_from(
                            entries.keys.iter().map(|(k, s)| (k, s.len())),
                            entries.total,
                        );
                    }
                }
            } else if IndexKey::is_lossy_numeric(value) {
                entries.lossy_numerics = entries.lossy_numerics.saturating_sub(1);
            } else {
                entries.unkeyable = entries.unkeyable.saturating_sub(1);
            }
        }
    }

    /// Equality lookup. `None` means the index cannot answer — either
    /// `(label, key)` is not indexed, or `value` lies outside the keyable
    /// domain — and the caller must fall back to a filtered scan.
    pub fn lookup(&self, label: &str, key: &str, value: &Value) -> Option<Vec<Id>> {
        let entries = self.by_label.get(label)?.get(key)?;
        match IndexKey::from_value(value) {
            Some(ik) => Some(
                entries
                    .keys
                    .get(&ik)
                    .map(|set| set.iter().copied().collect())
                    .unwrap_or_default(),
            ),
            None if IndexKey::never_matches(value) => Some(Vec::new()),
            None => None,
        }
    }

    /// Ordered range lookup: all items whose value `v` satisfies
    /// `lower ⋚ v ⋚ upper` under [`Value::cmp3`] semantics (cross-family
    /// comparisons are NULL, hence never matches). At least one bound must
    /// be given. `None` means the index cannot answer faithfully:
    /// `(label, key)` is not indexed, a bound value is unkeyable (±2⁵³
    /// numerics, lists), or lossy numerics are present under a numeric
    /// range — the caller falls back to a filtered scan.
    pub fn range_lookup(
        &self,
        label: &str,
        key: &str,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Option<Vec<Id>> {
        let entries = self.by_label.get(label)?.get(key)?;
        let (lo, hi) = match entries.classify_range(lower, upper) {
            RangeQuery::Empty => return Some(Vec::new()),
            RangeQuery::Refused => return None,
            RangeQuery::Bounds(lo, hi) => (lo, hi),
        };
        let mut out: Vec<Id> = entries
            .keys
            .range(lo, hi)
            .flat_map(|(_, set)| set.iter().copied())
            .collect();
        out.sort();
        Some(out)
    }

    // ------------------------------------------------------------------
    // Count-only probes and statistics (planning never materializes ids)
    // ------------------------------------------------------------------

    /// Exact count of items an equality [`KeyedIndex::lookup`] would
    /// return, in O(log n) and without materializing the id vector. Same
    /// refusal contract as `lookup` (`None` = fall back to a scan).
    pub fn count_eq(&self, label: &str, key: &str, value: &Value) -> Option<usize> {
        let entries = self.by_label.get(label)?.get(key)?;
        match IndexKey::from_value(value) {
            Some(ik) => Some(entries.keys.get(&ik).map(|set| set.len()).unwrap_or(0)),
            None if IndexKey::never_matches(value) => Some(0),
            None => None,
        }
    }

    /// Estimated count of items a [`KeyedIndex::range_lookup`] would
    /// return. Served from the equi-depth histogram when built (O(#buckets));
    /// before the first build (small indexes) it counts the range walk
    /// exactly — still allocation-free. Same refusal contract as
    /// `range_lookup`; when it answers, `Some(0)` is only returned for
    /// definitively-empty predicates or genuinely empty histograms/walks.
    pub fn count_range(
        &self,
        label: &str,
        key: &str,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Option<usize> {
        let entries = self.by_label.get(label)?.get(key)?;
        let (lo, hi) = match entries.classify_range(lower, upper) {
            RangeQuery::Empty => return Some(0),
            RangeQuery::Refused => return None,
            RangeQuery::Bounds(lo, hi) => (lo, hi),
        };
        if let Some(est) = entries.hist.estimate_range(&lo, &hi) {
            return Some(est);
        }
        Some(entries.keys.range(lo, hi).map(|(_, set)| set.len()).sum())
    }

    /// Exact count of items a [`KeyedIndex::prefix_lookup`] would return
    /// (O(log n + matching keys), allocation-free).
    pub fn count_prefix(&self, label: &str, key: &str, prefix: &str) -> Option<usize> {
        let entries = self.by_label.get(label)?.get(key)?;
        let start = Bound::Included(IndexKey::Str(prefix.to_string()));
        Some(
            entries
                .keys
                .range(start, Bound::Unbounded)
                .take_while(|(k, _)| matches!(k, IndexKey::Str(s) if s.starts_with(prefix)))
                .map(|(_, set)| set.len())
                .sum(),
        )
    }

    /// `(total keyable entries, distinct keys)` for `(label, key)` —
    /// `total / distinct` is the average-bucket selectivity estimate the
    /// planner uses for equality predicates whose operand cannot be
    /// evaluated yet (intermediate join results).
    pub fn stats(&self, label: &str, key: &str) -> Option<(usize, usize)> {
        let entries = self.by_label.get(label)?.get(key)?;
        Some((entries.total, entries.keys.len()))
    }

    /// Walk all indexed items of `(label, key)` in `ORDER BY` order
    /// ([`Value::cmp_order`]): type families in `cmp_order` rank order
    /// (strings < booleans < numerics < dates < datetimes), keys ascending
    /// within each — or everything reversed when `descending`.
    ///
    /// `None` when `(label, key)` is not indexed **or** any currently
    /// stored value is unkeyable (lossy numerics, `NaN`, lists, maps): such
    /// values order among (or across) families under `cmp_order`, so the
    /// walk would be incomplete and the caller must fall back to a sort.
    /// Items whose property is absent (`NULL` keys, sorting last) are by
    /// construction not walked — callers account for them via
    /// [`KeyedIndex::stats`] against the extent cardinality.
    pub fn ordered_walk(
        &self,
        label: &str,
        key: &str,
        descending: bool,
    ) -> Option<Box<dyn Iterator<Item = Id> + '_>> {
        let entries = self.by_label.get(label)?.get(key)?;
        if entries.lossy_numerics > 0 || entries.unkeyable > 0 {
            return None;
        }
        // IndexKey families in Value::cmp_order rank order (Str < Bool <
        // numerics < Date < DateTime); see `IndexKey::family` for the ids.
        let mut fams: Vec<u8> = vec![2, 0, 1, 3, 4];
        if descending {
            fams.reverse();
        }
        let iter = fams.into_iter().flat_map(move |fam| {
            let (lo, hi) = (family_min(fam), family_max(fam));
            let walk: Box<dyn Iterator<Item = Id>> = if descending {
                Box::new(
                    entries
                        .keys
                        .range_rev(lo, hi)
                        .flat_map(|(_, set)| set.iter().copied()),
                )
            } else {
                Box::new(
                    entries
                        .keys
                        .range(lo, hi)
                        .flat_map(|(_, set)| set.iter().copied()),
                )
            };
            walk
        });
        Some(Box::new(iter))
    }

    /// Rebuild every entry's histogram from the live key space (drift →
    /// 0). Bulk loads bypass the per-mutation staleness check's amortized
    /// rebuild cadence badly enough that [`crate::Graph::rebuild_stats`]
    /// exposes this as an explicit post-load refresh.
    pub fn rebuild_stats(&mut self) {
        for keys in Arc::make_mut(&mut self.by_label).values_mut() {
            for entries in keys.values_mut() {
                let entries = Arc::make_mut(entries);
                entries.hist.rebuild_from(
                    entries.keys.iter().map(|(k, s)| (k, s.len())),
                    entries.total,
                );
            }
        }
    }

    /// Prefix scan: all items whose value is a string starting with
    /// `prefix`, matching `STARTS WITH` semantics (non-strings never
    /// match). Always answerable when `(label, key)` is indexed — every
    /// string is keyable.
    pub fn prefix_lookup(&self, label: &str, key: &str, prefix: &str) -> Option<Vec<Id>> {
        let entries = self.by_label.get(label)?.get(key)?;
        let start = Bound::Included(IndexKey::Str(prefix.to_string()));
        let mut out: Vec<Id> = entries
            .keys
            .range(start, Bound::Unbounded)
            .take_while(|(k, _)| matches!(k, IndexKey::Str(s) if s.starts_with(prefix)))
            .flat_map(|(_, set)| set.iter().copied())
            .collect();
        out.sort();
        Some(out)
    }
}

/// Smallest key of a family (inclusive frontier).
pub(crate) fn family_min(fam: u8) -> Bound<IndexKey> {
    Bound::Included(match fam {
        0 => IndexKey::Bool(false),
        1 => IndexKey::FloatBits(f64::NEG_INFINITY.to_bits()),
        2 => IndexKey::Str(String::new()),
        3 => IndexKey::Date(i64::MIN),
        _ => IndexKey::DateTime(i64::MIN),
    })
}

/// Largest key of a family. Strings have no maximum, so the Str frontier is
/// "everything below the smallest Date key".
pub(crate) fn family_max(fam: u8) -> Bound<IndexKey> {
    match fam {
        0 => Bound::Included(IndexKey::Bool(true)),
        1 => Bound::Included(IndexKey::FloatBits(f64::INFINITY.to_bits())),
        2 => Bound::Excluded(IndexKey::Date(i64::MIN)),
        3 => Bound::Included(IndexKey::Date(i64::MAX)),
        _ => Bound::Included(IndexKey::DateTime(i64::MAX)),
    }
}

/// Whether `(lo, hi)` denotes an empty interval, so classification can
/// report `Empty` (definitive) instead of walking nothing.
fn range_is_empty(lo: &Bound<IndexKey>, hi: &Bound<IndexKey>) -> bool {
    match (lo, hi) {
        (Bound::Included(a), Bound::Included(b)) => a > b,
        (Bound::Included(a), Bound::Excluded(b))
        | (Bound::Excluded(a), Bound::Included(b))
        | (Bound::Excluded(a), Bound::Excluded(b)) => a >= b,
        _ => false,
    }
}

/// The set of node property indexes of a graph, maintained through every
/// mutation *and undo* path of [`crate::Graph`].
#[derive(Debug, Clone, Default)]
pub struct PropIndex {
    pub(crate) inner: KeyedIndex<NodeId>,
}

impl PropIndex {
    /// `true` when no index exists (mutation fast path).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Declare an index on `(label, key)`. Returns `false` when it already
    /// exists. The caller (the store) populates it from the live extent.
    pub fn create(&mut self, label: &str, key: &str) -> bool {
        self.inner.create(label, key)
    }

    /// Drop the index on `(label, key)`; `false` when absent.
    pub fn drop_index(&mut self, label: &str, key: &str) -> bool {
        self.inner.drop_index(label, key)
    }

    /// Whether `(label, key)` is indexed.
    pub fn is_indexed(&self, label: &str, key: &str) -> bool {
        self.inner.is_indexed(label, key)
    }

    /// All `(label, key)` index definitions, sorted.
    pub fn definitions(&self) -> Vec<(String, String)> {
        self.inner.definitions()
    }

    /// The property keys indexed under `label`.
    pub fn keys_for_label(&self, label: &str) -> Vec<String> {
        self.inner.keys_for_label(label)
    }

    /// Add one `(label, key, value) → node` entry.
    pub fn insert(&mut self, label: &str, key: &str, value: &Value, node: NodeId) {
        self.inner.insert(label, key, value, node)
    }

    /// Remove one entry.
    pub fn remove(&mut self, label: &str, key: &str, value: &Value, node: NodeId) {
        self.inner.remove(label, key, value, node)
    }

    /// Equality lookup; `None` = fall back to a filtered scan.
    pub fn lookup(&self, label: &str, key: &str, value: &Value) -> Option<Vec<NodeId>> {
        self.inner.lookup(label, key, value)
    }

    /// Ordered range lookup; see [`KeyedIndex::range_lookup`].
    pub fn range_lookup(
        &self,
        label: &str,
        key: &str,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Option<Vec<NodeId>> {
        self.inner.range_lookup(label, key, lower, upper)
    }

    /// `STARTS WITH` prefix scan; see [`KeyedIndex::prefix_lookup`].
    pub fn prefix_lookup(&self, label: &str, key: &str, prefix: &str) -> Option<Vec<NodeId>> {
        self.inner.prefix_lookup(label, key, prefix)
    }

    /// Count-only equality probe; see [`KeyedIndex::count_eq`].
    pub fn count_eq(&self, label: &str, key: &str, value: &Value) -> Option<usize> {
        self.inner.count_eq(label, key, value)
    }

    /// Count estimate for a range probe; see [`KeyedIndex::count_range`].
    pub fn count_range(
        &self,
        label: &str,
        key: &str,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Option<usize> {
        self.inner.count_range(label, key, lower, upper)
    }

    /// Count-only prefix probe; see [`KeyedIndex::count_prefix`].
    pub fn count_prefix(&self, label: &str, key: &str, prefix: &str) -> Option<usize> {
        self.inner.count_prefix(label, key, prefix)
    }

    /// `(total, distinct)` statistics; see [`KeyedIndex::stats`].
    pub fn stats(&self, label: &str, key: &str) -> Option<(usize, usize)> {
        self.inner.stats(label, key)
    }

    /// Ordered walk of the key space; see [`KeyedIndex::ordered_walk`].
    pub fn ordered_walk(
        &self,
        label: &str,
        key: &str,
        descending: bool,
    ) -> Option<Box<dyn Iterator<Item = NodeId> + '_>> {
        self.inner.ordered_walk(label, key, descending)
    }

    /// Rebuild every histogram from the live keys; see
    /// [`KeyedIndex::rebuild_stats`].
    pub fn rebuild_stats(&mut self) {
        self.inner.rebuild_stats()
    }

    /// Index every `(label, key)` pair a node record carries (node
    /// creation and undo of deletion).
    pub fn index_node(&mut self, rec: &NodeRecord) {
        if self.is_empty() {
            return;
        }
        for l in &rec.labels {
            for (k, v) in rec.props.iter() {
                self.insert(l, k, v, rec.id);
            }
        }
    }

    /// Remove every entry of a node record (deletion and undo of
    /// creation).
    pub fn deindex_node(&mut self, rec: &NodeRecord) {
        if self.is_empty() {
            return;
        }
        for l in &rec.labels {
            for (k, v) in rec.props.iter() {
                self.remove(l, k, v, rec.id);
            }
        }
    }
}

/// The set of relationship property indexes of a graph: `(type, key,
/// value)` → relationship set, maintained through every mutation and undo
/// path exactly like node indexes. Relationships carry exactly one
/// immutable type, so — unlike node labels — entries never migrate between
/// "labels".
#[derive(Debug, Clone, Default)]
pub struct RelPropIndex {
    pub(crate) inner: KeyedIndex<RelId>,
}

impl RelPropIndex {
    /// `true` when no index exists (mutation fast path).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Declare an index on `(rel_type, key)`; `false` when it exists.
    pub fn create(&mut self, rel_type: &str, key: &str) -> bool {
        self.inner.create(rel_type, key)
    }

    /// Drop the index on `(rel_type, key)`; `false` when absent.
    pub fn drop_index(&mut self, rel_type: &str, key: &str) -> bool {
        self.inner.drop_index(rel_type, key)
    }

    /// Whether `(rel_type, key)` is indexed.
    pub fn is_indexed(&self, rel_type: &str, key: &str) -> bool {
        self.inner.is_indexed(rel_type, key)
    }

    /// All `(rel_type, key)` index definitions, sorted.
    pub fn definitions(&self) -> Vec<(String, String)> {
        self.inner.definitions()
    }

    /// Add one `(type, key, value) → rel` entry.
    pub fn insert(&mut self, rel_type: &str, key: &str, value: &Value, rel: RelId) {
        self.inner.insert(rel_type, key, value, rel)
    }

    /// Remove one entry.
    pub fn remove(&mut self, rel_type: &str, key: &str, value: &Value, rel: RelId) {
        self.inner.remove(rel_type, key, value, rel)
    }

    /// Equality lookup; `None` = fall back to a filtered scan.
    pub fn lookup(&self, rel_type: &str, key: &str, value: &Value) -> Option<Vec<RelId>> {
        self.inner.lookup(rel_type, key, value)
    }

    /// Ordered range lookup; see [`KeyedIndex::range_lookup`].
    pub fn range_lookup(
        &self,
        rel_type: &str,
        key: &str,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Option<Vec<RelId>> {
        self.inner.range_lookup(rel_type, key, lower, upper)
    }

    /// `STARTS WITH` prefix scan; see [`KeyedIndex::prefix_lookup`].
    pub fn prefix_lookup(&self, rel_type: &str, key: &str, prefix: &str) -> Option<Vec<RelId>> {
        self.inner.prefix_lookup(rel_type, key, prefix)
    }

    /// Count-only equality probe; see [`KeyedIndex::count_eq`].
    pub fn count_eq(&self, rel_type: &str, key: &str, value: &Value) -> Option<usize> {
        self.inner.count_eq(rel_type, key, value)
    }

    /// Count estimate for a range probe; see [`KeyedIndex::count_range`].
    pub fn count_range(
        &self,
        rel_type: &str,
        key: &str,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Option<usize> {
        self.inner.count_range(rel_type, key, lower, upper)
    }

    /// Count-only prefix probe; see [`KeyedIndex::count_prefix`].
    pub fn count_prefix(&self, rel_type: &str, key: &str, prefix: &str) -> Option<usize> {
        self.inner.count_prefix(rel_type, key, prefix)
    }

    /// `(total, distinct)` statistics; see [`KeyedIndex::stats`].
    pub fn stats(&self, rel_type: &str, key: &str) -> Option<(usize, usize)> {
        self.inner.stats(rel_type, key)
    }

    /// Ordered walk of the key space; see [`KeyedIndex::ordered_walk`].
    pub fn ordered_walk(
        &self,
        rel_type: &str,
        key: &str,
        descending: bool,
    ) -> Option<Box<dyn Iterator<Item = RelId> + '_>> {
        self.inner.ordered_walk(rel_type, key, descending)
    }

    /// Rebuild every histogram from the live keys; see
    /// [`KeyedIndex::rebuild_stats`].
    pub fn rebuild_stats(&mut self) {
        self.inner.rebuild_stats()
    }

    /// Index every key of a relationship record (creation and undo of
    /// deletion).
    pub fn index_rel(&mut self, rec: &RelRecord) {
        if self.is_empty() {
            return;
        }
        for (k, v) in rec.props.iter() {
            self.insert(&rec.rel_type, k, v, rec.id);
        }
    }

    /// Remove every entry of a relationship record (deletion and undo of
    /// creation).
    pub fn deindex_rel(&mut self, rec: &RelRecord) {
        if self.is_empty() {
            return;
        }
        for (k, v) in rec.props.iter() {
            self.remove(&rec.rel_type, k, v, rec.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_drop_and_definitions() {
        let mut ix = PropIndex::default();
        assert!(ix.is_empty());
        assert!(ix.create("A", "x"));
        assert!(!ix.create("A", "x"));
        assert!(ix.create("A", "y"));
        assert!(ix.create("B", "x"));
        assert_eq!(
            ix.definitions(),
            vec![
                ("A".to_string(), "x".to_string()),
                ("A".to_string(), "y".to_string()),
                ("B".to_string(), "x".to_string()),
            ]
        );
        assert!(ix.drop_index("A", "y"));
        assert!(!ix.drop_index("A", "y"));
        assert_eq!(ix.keys_for_label("A"), vec!["x".to_string()]);
        assert!(ix.is_indexed("B", "x"));
        assert!(!ix.is_indexed("B", "y"));
    }

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
            IndexKey::Str(String::new()),
            IndexKey::Str("a".into()),
            IndexKey::Date(i64::MIN),
            IndexKey::Date(3),
            IndexKey::DateTime(i64::MIN),
        ];
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn lookup_distinguishes_empty_from_unanswerable() {
        let mut ix = PropIndex::default();
        ix.create("A", "x");
        ix.insert("A", "x", &Value::Int(1), NodeId(0));
        // indexed, present
        assert_eq!(ix.lookup("A", "x", &Value::Int(1)), Some(vec![NodeId(0)]));
        // cross-type numeric equality answered from the same key
        assert_eq!(
            ix.lookup("A", "x", &Value::Float(1.0)),
            Some(vec![NodeId(0)])
        );
        // indexed, absent value → definitive empty
        assert_eq!(ix.lookup("A", "x", &Value::Int(2)), Some(vec![]));
        // NULL / NaN equal nothing → definitive empty
        assert_eq!(ix.lookup("A", "x", &Value::Null), Some(vec![]));
        assert_eq!(ix.lookup("A", "x", &Value::Float(f64::NAN)), Some(vec![]));
        // lists and huge numerics cannot be answered
        assert_eq!(ix.lookup("A", "x", &Value::list([Value::Int(1)])), None);
        assert_eq!(ix.lookup("A", "x", &Value::Int(i64::MAX)), None);
        // unindexed (label, key)
        assert_eq!(ix.lookup("A", "y", &Value::Int(1)), None);
        assert_eq!(ix.lookup("B", "x", &Value::Int(1)), None);
    }

    #[test]
    fn remove_prunes_empty_buckets() {
        let mut ix = PropIndex::default();
        ix.create("A", "x");
        ix.insert("A", "x", &Value::str("v"), NodeId(1));
        ix.insert("A", "x", &Value::str("v"), NodeId(2));
        ix.remove("A", "x", &Value::str("v"), NodeId(1));
        assert_eq!(ix.lookup("A", "x", &Value::str("v")), Some(vec![NodeId(2)]));
        ix.remove("A", "x", &Value::str("v"), NodeId(2));
        assert_eq!(ix.lookup("A", "x", &Value::str("v")), Some(vec![]));
    }

    #[test]
    fn range_lookup_numeric() {
        let mut ix = PropIndex::default();
        ix.create("A", "x");
        for (i, v) in [
            Value::Int(1),
            Value::Float(1.5),
            Value::Int(2),
            Value::Float(2.5),
            Value::Int(3),
        ]
        .iter()
        .enumerate()
        {
            ix.insert("A", "x", v, NodeId(i as u64));
        }
        // closed interval crossing the Int/Float interleave
        assert_eq!(
            ix.range_lookup(
                "A",
                "x",
                Bound::Included(&Value::Float(1.5)),
                Bound::Excluded(&Value::Int(3))
            ),
            Some(vec![NodeId(1), NodeId(2), NodeId(3)])
        );
        // one-sided ranges
        assert_eq!(
            ix.range_lookup("A", "x", Bound::Excluded(&Value::Int(2)), Bound::Unbounded),
            Some(vec![NodeId(3), NodeId(4)])
        );
        assert_eq!(
            ix.range_lookup(
                "A",
                "x",
                Bound::Unbounded,
                Bound::Included(&Value::Float(1.5))
            ),
            Some(vec![NodeId(0), NodeId(1)])
        );
        // inverted and cross-family ranges are definitively empty
        assert_eq!(
            ix.range_lookup(
                "A",
                "x",
                Bound::Included(&Value::Int(5)),
                Bound::Included(&Value::Int(4))
            ),
            Some(vec![])
        );
        assert_eq!(
            ix.range_lookup(
                "A",
                "x",
                Bound::Included(&Value::Int(1)),
                Bound::Included(&Value::str("z"))
            ),
            Some(vec![])
        );
        // NULL bounds compare to nothing
        assert_eq!(
            ix.range_lookup("A", "x", Bound::Excluded(&Value::Null), Bound::Unbounded),
            Some(vec![])
        );
        // unindexed key / both-unbounded cannot answer
        assert_eq!(
            ix.range_lookup("A", "y", Bound::Excluded(&Value::Int(0)), Bound::Unbounded),
            None
        );
        assert_eq!(
            ix.range_lookup("A", "x", Bound::Unbounded, Bound::Unbounded),
            None
        );
    }

    #[test]
    fn range_lookup_respects_type_families() {
        let mut ix = PropIndex::default();
        ix.create("A", "x");
        ix.insert("A", "x", &Value::Int(5), NodeId(0));
        ix.insert("A", "x", &Value::str("m"), NodeId(1));
        ix.insert("A", "x", &Value::Bool(true), NodeId(2));
        ix.insert("A", "x", &Value::Date(10), NodeId(3));
        ix.insert("A", "x", &Value::DateTime(10), NodeId(4));
        // a string range sees only strings (cmp3 is NULL across types)
        assert_eq!(
            ix.range_lookup(
                "A",
                "x",
                Bound::Included(&Value::str("a")),
                Bound::Unbounded
            ),
            Some(vec![NodeId(1)])
        );
        // a numeric range sees only numerics, not dates
        assert_eq!(
            ix.range_lookup("A", "x", Bound::Included(&Value::Int(0)), Bound::Unbounded),
            Some(vec![NodeId(0)])
        );
        // date vs datetime stay separate
        assert_eq!(
            ix.range_lookup("A", "x", Bound::Included(&Value::Date(0)), Bound::Unbounded),
            Some(vec![NodeId(3)])
        );
        assert_eq!(
            ix.range_lookup(
                "A",
                "x",
                Bound::Unbounded,
                Bound::Included(&Value::DateTime(99))
            ),
            Some(vec![NodeId(4)])
        );
        // bool range
        assert_eq!(
            ix.range_lookup(
                "A",
                "x",
                Bound::Excluded(&Value::Bool(false)),
                Bound::Unbounded
            ),
            Some(vec![NodeId(2)])
        );
    }

    #[test]
    fn lossy_numerics_disable_numeric_ranges_only() {
        let bound = 1i64 << 53;
        let mut ix = PropIndex::default();
        ix.create("A", "x");
        ix.insert("A", "x", &Value::Int(1), NodeId(0));
        ix.insert("A", "x", &Value::str("s"), NodeId(1));
        // a stored out-of-range numeric would satisfy `> 0` but is not in
        // the index: numeric ranges must refuse, equality must still work.
        ix.insert("A", "x", &Value::Int(bound + 1), NodeId(2));
        assert_eq!(
            ix.range_lookup("A", "x", Bound::Excluded(&Value::Int(0)), Bound::Unbounded),
            None
        );
        assert_eq!(ix.lookup("A", "x", &Value::Int(1)), Some(vec![NodeId(0)]));
        // string ranges are unaffected
        assert_eq!(
            ix.range_lookup("A", "x", Bound::Included(&Value::str("")), Bound::Unbounded),
            Some(vec![NodeId(1)])
        );
        // removing the lossy value re-enables numeric ranges
        ix.remove("A", "x", &Value::Int(bound + 1), NodeId(2));
        assert_eq!(
            ix.range_lookup("A", "x", Bound::Excluded(&Value::Int(0)), Bound::Unbounded),
            Some(vec![NodeId(0)])
        );
        // an out-of-range *bound* is refused even with a clean index
        assert_eq!(
            ix.range_lookup(
                "A",
                "x",
                Bound::Included(&Value::Int(bound)),
                Bound::Unbounded
            ),
            None
        );
        // NaN bounds compare to nothing → definitively empty
        assert_eq!(
            ix.range_lookup(
                "A",
                "x",
                Bound::Included(&Value::Float(f64::NAN)),
                Bound::Unbounded
            ),
            Some(vec![])
        );
    }

    #[test]
    fn prefix_lookup_matches_starts_with() {
        let mut ix = PropIndex::default();
        ix.create("A", "x");
        ix.insert("A", "x", &Value::str("alpha"), NodeId(0));
        ix.insert("A", "x", &Value::str("alphabet"), NodeId(1));
        ix.insert("A", "x", &Value::str("beta"), NodeId(2));
        ix.insert("A", "x", &Value::Int(7), NodeId(3)); // non-string: never matches
        assert_eq!(
            ix.prefix_lookup("A", "x", "alpha"),
            Some(vec![NodeId(0), NodeId(1)])
        );
        assert_eq!(ix.prefix_lookup("A", "x", "alphabe"), Some(vec![NodeId(1)]));
        assert_eq!(ix.prefix_lookup("A", "x", "z"), Some(vec![]));
        // empty prefix matches every string (and only strings)
        assert_eq!(
            ix.prefix_lookup("A", "x", ""),
            Some(vec![NodeId(0), NodeId(1), NodeId(2)])
        );
        assert_eq!(ix.prefix_lookup("A", "y", "a"), None);
    }

    #[test]
    fn count_probes_agree_with_lookups() {
        let mut ix = PropIndex::default();
        ix.create("A", "x");
        for i in 0..50 {
            ix.insert("A", "x", &Value::Int(i % 10), NodeId(i as u64));
        }
        // equality: exact count, no materialization
        assert_eq!(ix.count_eq("A", "x", &Value::Int(3)), Some(5));
        assert_eq!(ix.count_eq("A", "x", &Value::Int(99)), Some(0));
        assert_eq!(ix.count_eq("A", "x", &Value::Null), Some(0));
        assert_eq!(ix.count_eq("A", "x", &Value::Int(i64::MAX)), None);
        assert_eq!(ix.count_eq("A", "y", &Value::Int(3)), None);
        // stats: 50 entries over 10 distinct keys
        assert_eq!(ix.stats("A", "x"), Some((50, 10)));
        // range count: an estimate within the documented error bound
        // (2·depth + drift; depth = ceil(50/32) … but the first bucket has
        // no exclusive floor, so it is charged at half weight)
        let c = ix
            .count_range(
                "A",
                "x",
                Bound::Included(&Value::Int(0)),
                Bound::Excluded(&Value::Int(5)),
            )
            .unwrap();
        let bound = 2 * 50usize.div_ceil(32) + 16;
        assert!(c.abs_diff(25) <= bound, "estimate {c} too far from 25");
        // prefix count
        ix.create("A", "s");
        ix.insert("A", "s", &Value::str("alpha"), NodeId(100));
        ix.insert("A", "s", &Value::str("alp"), NodeId(101));
        ix.insert("A", "s", &Value::str("beta"), NodeId(102));
        assert_eq!(ix.count_prefix("A", "s", "alp"), Some(2));
        assert_eq!(ix.count_prefix("A", "s", "z"), Some(0));
        assert_eq!(ix.count_prefix("B", "s", "a"), None);
        // refusal mirrors range_lookup: lossy numerics opt numeric counts out
        ix.insert("A", "x", &Value::Int((1 << 53) + 1), NodeId(999));
        assert_eq!(
            ix.count_range("A", "x", Bound::Included(&Value::Int(0)), Bound::Unbounded),
            None
        );
    }

    #[test]
    fn ordered_walk_matches_cmp_order() {
        let mut ix = PropIndex::default();
        ix.create("A", "x");
        // mixed families: cmp_order ranks Str < Bool < numerics < Date
        let items = [
            (Value::Int(2), NodeId(0)),
            (Value::Float(1.5), NodeId(1)),
            (Value::str("b"), NodeId(2)),
            (Value::str("a"), NodeId(3)),
            (Value::Bool(true), NodeId(4)),
            (Value::Date(7), NodeId(5)),
        ];
        for (v, id) in &items {
            ix.insert("A", "x", v, *id);
        }
        let asc: Vec<NodeId> = ix.ordered_walk("A", "x", false).unwrap().collect();
        assert_eq!(
            asc,
            vec![
                NodeId(3), // "a"
                NodeId(2), // "b"
                NodeId(4), // true
                NodeId(1), // 1.5
                NodeId(0), // 2
                NodeId(5), // date(7)
            ]
        );
        let desc: Vec<NodeId> = ix.ordered_walk("A", "x", true).unwrap().collect();
        let mut rev = asc.clone();
        rev.reverse();
        assert_eq!(desc, rev);
        // walks refuse while unkeyable values are present…
        ix.insert("A", "x", &Value::list([Value::Int(1)]), NodeId(9));
        assert!(ix.ordered_walk("A", "x", false).is_none());
        ix.remove("A", "x", &Value::list([Value::Int(1)]), NodeId(9));
        assert!(ix.ordered_walk("A", "x", false).is_some());
        // …and while lossy numerics are present
        ix.insert("A", "x", &Value::Int(1 << 60), NodeId(9));
        assert!(ix.ordered_walk("A", "x", false).is_none());
        ix.remove("A", "x", &Value::Int(1 << 60), NodeId(9));
        assert!(ix.ordered_walk("A", "x", false).is_some());
    }

    #[test]
    fn histogram_estimates_on_large_entry() {
        let mut ix = PropIndex::default();
        ix.create("A", "x");
        for i in 0..2000i64 {
            ix.insert("A", "x", &Value::Int(i), NodeId(i as u64));
        }
        let (total, distinct) = ix.stats("A", "x").unwrap();
        assert_eq!((total, distinct), (2000, 2000));
        let est = ix
            .count_range(
                "A",
                "x",
                Bound::Included(&Value::Int(0)),
                Bound::Excluded(&Value::Int(200)),
            )
            .unwrap();
        // estimate within the documented 2·depth + drift error bound
        let depth = 2000usize.div_ceil(32);
        let bound = 2 * depth + 2000 / 8;
        assert!(est.abs_diff(200) <= bound, "est {est} too far from 200");
        // removals keep totals exact
        for i in 0..500i64 {
            ix.remove("A", "x", &Value::Int(i), NodeId(i as u64));
        }
        assert_eq!(ix.stats("A", "x"), Some((1500, 1500)));
    }

    #[test]
    fn rel_index_basics() {
        let mut ix = RelPropIndex::default();
        assert!(ix.create("R", "w"));
        ix.insert("R", "w", &Value::Int(5), RelId(1));
        ix.insert("R", "w", &Value::Int(9), RelId(2));
        assert_eq!(ix.lookup("R", "w", &Value::Int(5)), Some(vec![RelId(1)]));
        assert_eq!(
            ix.range_lookup("R", "w", Bound::Excluded(&Value::Int(5)), Bound::Unbounded),
            Some(vec![RelId(2)])
        );
        assert_eq!(ix.lookup("S", "w", &Value::Int(5)), None);
        ix.remove("R", "w", &Value::Int(5), RelId(1));
        assert_eq!(ix.lookup("R", "w", &Value::Int(5)), Some(vec![]));
        assert_eq!(ix.definitions(), vec![("R".to_string(), "w".to_string())]);
    }
}
