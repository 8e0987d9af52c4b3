//! Property indexes: `(label, [k1, k2, …])` → lexicographic key vectors →
//! item sets. The one index implementation of the store — a single-key
//! index (`CREATE INDEX ON :L(k)`) is the width-1 case.
//!
//! The PG-Trigger engine evaluates trigger conditions as Cypher pattern
//! matches on every activating statement, so predicates like
//! `(:Hospital {name: 'Sacco'})`, `occupancy >= 0.95` or the conjunction
//! `(p:Patient {status: 'ICU'}) WHERE p.severity >= t` (paper §6) sit on
//! the hottest path of the engine. A [`CompositeIndex`] answers each in
//! one O(log n + k) walk: equality on the longest prefix of the column
//! list plus one trailing range or `STARTS WITH` bound on the next column
//! ([`IndexProbe`]), and — because the key space is ordered the way
//! `ORDER BY` orders values — top-k walks (`ORDER BY a.x, a.y LIMIT k`),
//! optionally pinned to an equality prefix.
//!
//! ## Key construction
//!
//! Every item carrying the label contributes exactly one key vector: one
//! [`CompositeSeg`] per column, either the [`IndexKey`] of its value (see
//! [`crate::prop_index`] for how values normalize so that keys agree with
//! Cypher's `1 = 1.0` equality) or the explicit [`CompositeSeg::Missing`]
//! marker when the property is absent. Indexing the *absence* is what
//! keeps sub-width probes (equality on fewer columns than the index has)
//! and whole-extent ordered walks complete: an entry covers the label's
//! full extent at every width.
//!
//! Segments order as their keys do — [`IndexKey`]'s order is
//! [`Value::cmp_order`]'s (strings < booleans < numerics < dates <
//! datetimes, numerics interleaved) — with `Missing` sorting after every
//! value, exactly `ORDER BY`'s NULL-last rank. One ordered map therefore
//! serves the range walks (bounds stay inside one family, where `cmp3` and
//! `cmp_order` agree), the histogram (one in-order walk) and the ordered
//! walks (whole-key order *is* the `ORDER BY k1, k2, …` order, ascending
//! or — reversed, with `Missing` leading, matching NULL-first — descending).
//!
//! ## Refusals
//!
//! A record holding an **unkeyable** value in any indexed column (±2⁵³
//! lossy numerics, `NaN`, `LIST`, `MAP`) is excluded whole and counted.
//! While such exclusions exist, the index refuses (returns `None`, caller
//! falls back to a scan):
//!
//! * probes narrower than the full column width — the excluded record may
//!   satisfy the probed prefix via an unprobed column;
//! * numeric trailing ranges while **lossy numerics** are present — a
//!   stored out-of-range numeric is absent from the index yet can satisfy
//!   `x > 0`; string/date/boolean ranges and prefix scans are unaffected,
//!   every value of those families is keyable;
//! * ordered walks — the excluded record belongs somewhere in the order.
//!
//! Full-width equality probes stay answerable: a keyable probe value never
//! `eq3`-equals an excluded (unkeyable) stored value. A probe *value* that
//! is itself unkeyable is refused unless it equals nothing at all (`NULL`,
//! `NaN`), which is definitively empty.

use crate::pmap::{PMap, PSet};
use crate::prop_index::{family_max, family_min, IndexKey};
use crate::props::PropertyMap;
use crate::stats::Histogram;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

/// One segment of a composite key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompositeSeg {
    /// A keyable property value.
    Key(IndexKey),
    /// The property is absent (`NULL`), sorting after every value — the
    /// `cmp_order` NULL-last rank.
    Missing,
    /// Bound sentinel above everything; never stored, only used to close
    /// prefix ranges (`[prefix, …] < [prefix, Hi]` for every stored key).
    Hi,
}

/// The exclusive upper frontier of a family as a segment: the next
/// family's smallest key, or `Missing` above the last family.
fn family_sup(fam: u8) -> CompositeSeg {
    if fam < 4 {
        CompositeSeg::Key(family_min(fam + 1))
    } else {
        CompositeSeg::Missing
    }
}

impl Ord for CompositeSeg {
    fn cmp(&self, other: &Self) -> Ordering {
        use CompositeSeg::*;
        match (self, other) {
            (Key(a), Key(b)) => a.cmp(b),
            (Key(_), _) => Ordering::Less,
            (_, Key(_)) => Ordering::Greater,
            (Missing, Missing) | (Hi, Hi) => Ordering::Equal,
            (Missing, Hi) => Ordering::Less,
            (Hi, Missing) => Ordering::Greater,
        }
    }
}

impl PartialOrd for CompositeSeg {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The trailing bound of a composite probe: after the equality prefix,
/// the next column may carry one range or `STARTS WITH` constraint.
#[derive(Debug, Clone, Copy)]
pub enum CompositeTrailing<'a> {
    /// Equality prefix only.
    None,
    /// `lower ⋚ v ⋚ upper` on the column after the prefix ([`Value::cmp3`]
    /// semantics; at least one side must be bounded).
    Range(Bound<&'a Value>, Bound<&'a Value>),
    /// `STARTS WITH` on the column after the prefix.
    Prefix(&'a str),
}

/// One index probe against a definition's column list: equality on the
/// first `eq.len()` columns, then at most one range or `STARTS WITH`
/// bound on the next. A single-key equality lookup is `eq = [v]` on a
/// width-1 definition; a single-key range or prefix scan has `eq = []`.
#[derive(Debug, Clone, Copy)]
pub struct IndexProbe<'a> {
    pub columns: &'a [String],
    pub eq: &'a [Value],
    pub trailing: CompositeTrailing<'a>,
}

impl IndexProbe<'_> {
    /// Whether a property map satisfies the probe under Cypher semantics
    /// ([`Value::eq3`] equality, [`Value::cmp3`] ranges — cross-family
    /// comparisons never match). Unconstrained columns are free: a
    /// missing property only fails the probe when it is constrained.
    /// Overlay views use this to correct base-graph answers for touched
    /// items.
    pub fn matches(&self, props: &PropertyMap) -> bool {
        if self.eq.len() > self.columns.len() {
            return false;
        }
        for (col, want) in self.columns.iter().zip(self.eq) {
            if props.get(col).is_none_or(|w| w.eq3(want) != Some(true)) {
                return false;
            }
        }
        let next = || {
            self.columns
                .get(self.eq.len())
                .and_then(|col| props.get(col))
        };
        match self.trailing {
            CompositeTrailing::None => true,
            CompositeTrailing::Range(lo, hi) => next().is_some_and(|w| value_in_range(w, lo, hi)),
            CompositeTrailing::Prefix(p) => {
                next().is_some_and(|w| matches!(w, Value::Str(s) if s.starts_with(p)))
            }
        }
    }
}

/// Whether `v` satisfies `lower ⋚ v ⋚ upper` under [`Value::cmp3`]
/// semantics. A both-unbounded pair is not a range predicate and matches
/// nothing, mirroring the index's refusal.
fn value_in_range(v: &Value, lower: Bound<&Value>, upper: Bound<&Value>) -> bool {
    let lo_ok = match lower {
        Bound::Unbounded => true,
        Bound::Included(l) => matches!(v.cmp3(l), Some(Ordering::Greater | Ordering::Equal)),
        Bound::Excluded(l) => matches!(v.cmp3(l), Some(Ordering::Greater)),
    };
    let hi_ok = match upper {
        Bound::Unbounded => true,
        Bound::Included(h) => matches!(v.cmp3(h), Some(Ordering::Less | Ordering::Equal)),
        Bound::Excluded(h) => matches!(v.cmp3(h), Some(Ordering::Less)),
    };
    lo_ok && hi_ok && !(matches!(lower, Bound::Unbounded) && matches!(upper, Bound::Unbounded))
}

/// Cardinality statistics of one index definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Records indexed — the whole extent minus unkeyable exclusions.
    pub total: usize,
    /// Distinct key vectors.
    pub distinct: usize,
    /// Records whose leading column is present.
    pub keyed_total: usize,
    /// Distinct key vectors whose leading column is present. At width 1
    /// `keyed_total / keyed_distinct` is the average equality bucket —
    /// the planner's selectivity estimate for an equality conjunct whose
    /// operand cannot be evaluated yet.
    pub keyed_distinct: usize,
}

/// Why a record is excluded from its composite entry.
enum Exclusion {
    Lossy,
    Unkeyable,
}

/// One `(label, columns)` index entry: the ordered key space, the
/// exclusion counts behind the refusal rules, and cardinality statistics
/// maintained through the same insert/remove calls — hence through every
/// undo path.
#[derive(Debug, Clone)]
struct CompositeEntries<Id> {
    /// The ordered column list of the definition.
    columns: Arc<[String]>,
    map: PMap<Vec<CompositeSeg>, PSet<Id>>,
    /// Records excluded because some column holds a ±2⁵³ lossy numeric.
    lossy_numerics: usize,
    /// Records excluded for other unkeyable values (`NaN`, `LIST`, `MAP`).
    unkeyable: usize,
    /// Records currently indexed (`Σ bucket sizes`).
    total: usize,
    /// Indexed records whose leading column is present.
    keyed: usize,
    /// Equi-depth histogram over the **leading column**'s key space
    /// (`Missing` leading segments are not attributed — range probes never
    /// match them).
    hist: Histogram,
}

/// How a probe classifies against one entry.
enum ProbeQuery {
    /// No stored key can satisfy it — definitively empty.
    Empty,
    /// The entry cannot answer faithfully — fall back to a scan.
    Refused,
    /// Full-width equality: at most one bucket.
    Point(Vec<CompositeSeg>),
    /// Walk the key space between these vector bounds; when `prefix_col`
    /// is set, additionally `take_while` that column's segment is a string
    /// with the given prefix (`STARTS WITH` has no closed upper key).
    Walk {
        lo: Bound<Vec<CompositeSeg>>,
        hi: Bound<Vec<CompositeSeg>>,
        prefix_col: Option<(usize, String)>,
    },
}

impl<Id: Ord + Copy> CompositeEntries<Id> {
    fn new(columns: &[String]) -> Self {
        CompositeEntries {
            columns: columns.into(),
            map: PMap::new(),
            lossy_numerics: 0,
            unkeyable: 0,
            total: 0,
            keyed: 0,
            hist: Histogram::default(),
        }
    }

    /// The key vector of a property map, or the exclusion reason.
    fn key_of(&self, props: &PropertyMap) -> Result<Vec<CompositeSeg>, Exclusion> {
        let mut segs = Vec::with_capacity(self.columns.len());
        let mut excluded: Option<Exclusion> = None;
        for col in self.columns.iter() {
            match props.get(col) {
                None => segs.push(CompositeSeg::Missing),
                Some(v) => match IndexKey::from_value(v) {
                    Some(ik) => segs.push(CompositeSeg::Key(ik)),
                    // lossy wins over plain-unkeyable: it is the reason
                    // numeric ranges must refuse
                    None if IndexKey::is_lossy_numeric(v) => excluded = Some(Exclusion::Lossy),
                    None => {
                        if !matches!(excluded, Some(Exclusion::Lossy)) {
                            excluded = Some(Exclusion::Unkeyable);
                        }
                    }
                },
            }
        }
        match excluded {
            Some(e) => Err(e),
            None => Ok(segs),
        }
    }

    fn insert(&mut self, props: &PropertyMap, id: Id) {
        match self.key_of(props) {
            Ok(segs) => {
                // An existing bucket is edited in place; a fresh one is
                // inserted only after the statistics have read the key
                // vector it takes ownership of.
                let bucket = self.map.get_mut(&segs);
                let fresh = bucket.is_none();
                if !bucket.is_none_or(|set| set.insert(id)) {
                    return; // already indexed
                }
                self.total += 1;
                if let Some(CompositeSeg::Key(ik)) = segs.first() {
                    self.keyed += 1;
                    self.hist.note_insert(ik);
                }
                if fresh {
                    self.map.insert(segs, PSet::from_iter([id]));
                }
                if self.hist.stale(self.keyed) {
                    self.rebuild_hist();
                }
            }
            Err(Exclusion::Lossy) => self.lossy_numerics += 1,
            Err(Exclusion::Unkeyable) => self.unkeyable += 1,
        }
    }

    fn remove(&mut self, props: &PropertyMap, id: Id) {
        match self.key_of(props) {
            Ok(segs) => {
                if let Some(set) = self.map.get_mut(&segs) {
                    if set.remove(&id) {
                        self.total = self.total.saturating_sub(1);
                        if let Some(CompositeSeg::Key(ik)) = segs.first() {
                            self.keyed = self.keyed.saturating_sub(1);
                            self.hist.note_remove(ik);
                        }
                    }
                    if set.is_empty() {
                        self.map.remove(&segs);
                    }
                    if self.hist.stale(self.keyed) {
                        self.rebuild_hist();
                    }
                }
            }
            Err(Exclusion::Lossy) => self.lossy_numerics = self.lossy_numerics.saturating_sub(1),
            Err(Exclusion::Unkeyable) => self.unkeyable = self.unkeyable.saturating_sub(1),
        }
    }

    /// Rebuild the leading-column histogram from the live key space: the
    /// map is in [`IndexKey`] order, so one walk coalesces the adjacent
    /// vectors that share a leading key.
    fn rebuild_hist(&mut self) {
        let mut by_leading: Vec<(&IndexKey, usize)> = Vec::new();
        for (segs, set) in self.map.iter() {
            let Some(CompositeSeg::Key(ik)) = segs.first() else {
                break; // `Missing` sorts after every key
            };
            match by_leading.last_mut() {
                Some((last, n)) if *last == ik => *n += set.len(),
                _ => by_leading.push((ik, set.len())),
            }
        }
        self.hist
            .rebuild_from(by_leading.iter().copied(), self.keyed);
    }

    /// Classify an equality-prefix + trailing-bound probe (see module docs
    /// for the refusal rules).
    fn classify(&self, eq: &[Value], trailing: CompositeTrailing<'_>) -> ProbeQuery {
        let width = self.columns.len();
        if eq.len() > width || (eq.len() == width && !matches!(trailing, CompositeTrailing::None)) {
            return ProbeQuery::Refused; // malformed probe
        }
        // Equality prefix → exact segments.
        let mut prefix: Vec<CompositeSeg> = Vec::with_capacity(eq.len() + 2);
        for v in eq {
            match IndexKey::from_value(v) {
                Some(ik) => prefix.push(CompositeSeg::Key(ik)),
                None if IndexKey::never_matches(v) => return ProbeQuery::Empty,
                None => return ProbeQuery::Refused,
            }
        }
        // Probes narrower than the full width can match records excluded
        // for a value in an *unprobed* column — refuse while any exist.
        let constrained = eq.len() + usize::from(!matches!(trailing, CompositeTrailing::None));
        if constrained < width && self.lossy_numerics + self.unkeyable > 0 {
            return ProbeQuery::Refused;
        }
        match trailing {
            CompositeTrailing::None if eq.len() == width => ProbeQuery::Point(prefix),
            CompositeTrailing::None => {
                let mut hi = prefix.clone();
                hi.push(CompositeSeg::Hi);
                ProbeQuery::Walk {
                    lo: Bound::Included(prefix),
                    hi: Bound::Excluded(hi),
                    prefix_col: None,
                }
            }
            CompositeTrailing::Prefix(p) => {
                let col = eq.len();
                let mut lo = prefix.clone();
                lo.push(CompositeSeg::Key(IndexKey::Str(p.to_string())));
                let mut hi = prefix;
                hi.push(family_sup(0)); // end of the string family
                ProbeQuery::Walk {
                    lo: Bound::Included(lo),
                    hi: Bound::Excluded(hi),
                    prefix_col: Some((col, p.to_string())),
                }
            }
            CompositeTrailing::Range(lower, upper) => {
                // Resolve value bounds into trailing-column keys.
                let classify = |b: Bound<&Value>| -> Result<Bound<IndexKey>, ProbeQuery> {
                    match b {
                        Bound::Unbounded => Ok(Bound::Unbounded),
                        Bound::Included(v) | Bound::Excluded(v) => match IndexKey::from_value(v) {
                            Some(ik) => Ok(match b {
                                Bound::Included(_) => Bound::Included(ik),
                                _ => Bound::Excluded(ik),
                            }),
                            None if IndexKey::never_matches(v) => Err(ProbeQuery::Empty),
                            None if matches!(v, Value::Map(_)) => Err(ProbeQuery::Empty),
                            None => Err(ProbeQuery::Refused),
                        },
                    }
                };
                let lo_k = match classify(lower) {
                    Ok(b) => b,
                    Err(q) => return q,
                };
                let hi_k = match classify(upper) {
                    Ok(b) => b,
                    Err(q) => return q,
                };
                let fam = match (&lo_k, &hi_k) {
                    (Bound::Included(k) | Bound::Excluded(k), Bound::Unbounded)
                    | (Bound::Unbounded, Bound::Included(k) | Bound::Excluded(k)) => k.family(),
                    (
                        Bound::Included(a) | Bound::Excluded(a),
                        Bound::Included(b) | Bound::Excluded(b),
                    ) => {
                        if a.family() != b.family() {
                            return ProbeQuery::Empty;
                        }
                        a.family()
                    }
                    (Bound::Unbounded, Bound::Unbounded) => return ProbeQuery::Refused,
                };
                // Numeric ranges are incomplete while lossy numerics exist.
                if fam == 2 && self.lossy_numerics > 0 {
                    return ProbeQuery::Refused;
                }
                // Inverted ranges are definitively empty, not a walk.
                if range_keys_empty(&lo_k, &hi_k) {
                    return ProbeQuery::Empty;
                }
                let lo = match lo_k {
                    Bound::Unbounded | Bound::Included(_) => {
                        let mut v = prefix.clone();
                        v.push(CompositeSeg::Key(match lo_k {
                            Bound::Included(k) => k,
                            _ => family_min(fam),
                        }));
                        Bound::Included(v)
                    }
                    Bound::Excluded(k) => {
                        // exclude every key whose trailing column equals k,
                        // regardless of later columns
                        let mut v = prefix.clone();
                        v.push(CompositeSeg::Key(k));
                        v.push(CompositeSeg::Hi);
                        Bound::Excluded(v)
                    }
                };
                let hi = match hi_k {
                    Bound::Unbounded => {
                        let mut v = prefix;
                        v.push(family_sup(fam));
                        Bound::Excluded(v)
                    }
                    Bound::Included(k) => {
                        let mut v = prefix;
                        v.push(CompositeSeg::Key(k));
                        v.push(CompositeSeg::Hi);
                        Bound::Excluded(v)
                    }
                    Bound::Excluded(k) => {
                        let mut v = prefix;
                        v.push(CompositeSeg::Key(k));
                        Bound::Excluded(v)
                    }
                };
                ProbeQuery::Walk {
                    lo,
                    hi,
                    prefix_col: None,
                }
            }
        }
    }

    /// Walk a classified probe, applying the optional `STARTS WITH`
    /// cut-off.
    fn walk_probe<'s>(
        &'s self,
        lo: Bound<Vec<CompositeSeg>>,
        hi: Bound<Vec<CompositeSeg>>,
        prefix_col: Option<(usize, String)>,
    ) -> impl Iterator<Item = (&'s Vec<CompositeSeg>, &'s PSet<Id>)> + 's {
        self.map
            .range(lo, hi)
            .take_while(move |(segs, _)| match &prefix_col {
                None => true,
                Some((col, p)) => {
                    matches!(&segs[*col], CompositeSeg::Key(IndexKey::Str(s)) if s.starts_with(p.as_str()))
                }
            })
    }

    /// The ids matching a probe, ascending.
    fn lookup(&self, p: IndexProbe<'_>) -> Option<Vec<Id>> {
        match self.classify(p.eq, p.trailing) {
            ProbeQuery::Empty => Some(Vec::new()),
            ProbeQuery::Refused => None,
            ProbeQuery::Point(segs) => Some(
                self.map
                    .get(&segs)
                    .map(|set| set.iter().copied().collect())
                    .unwrap_or_default(),
            ),
            ProbeQuery::Walk { lo, hi, prefix_col } => {
                let mut out: Vec<Id> = self
                    .walk_probe(lo, hi, prefix_col)
                    .flat_map(|(_, set)| set.iter().copied())
                    .collect();
                out.sort();
                Some(out)
            }
        }
    }

    /// Count the ids a [`CompositeEntries::lookup`] would return, without
    /// materializing them. Leading-column ranges are served from the
    /// histogram once built (an **estimate**, O(#buckets)); everything
    /// else is exact — O(log n) for full-width equality, an
    /// allocation-free walk otherwise.
    fn count(&self, p: IndexProbe<'_>) -> Option<usize> {
        match self.classify(p.eq, p.trailing) {
            ProbeQuery::Empty => Some(0),
            ProbeQuery::Refused => None,
            ProbeQuery::Point(segs) => Some(self.map.get(&segs).map_or(0, |set| set.len())),
            ProbeQuery::Walk { lo, hi, prefix_col } => {
                if let (true, CompositeTrailing::Range(lower, upper)) =
                    (p.eq.is_empty(), p.trailing)
                {
                    if let Some(est) = self.hist_estimate(lower, upper) {
                        return Some(est);
                    }
                }
                Some(
                    self.walk_probe(lo, hi, prefix_col)
                        .map(|(_, set)| set.len())
                        .sum(),
                )
            }
        }
    }

    /// Histogram estimate for a leading-column range (bounds already
    /// validated by [`CompositeEntries::classify`]). The histogram orders
    /// its buckets in [`IndexKey`] order, so unbounded sides close at that
    /// order's family frontiers.
    fn hist_estimate(&self, lower: Bound<&Value>, upper: Bound<&Value>) -> Option<usize> {
        let key_bound = |b: Bound<&Value>| -> Option<Bound<IndexKey>> {
            Some(match b {
                Bound::Unbounded => Bound::Unbounded,
                Bound::Included(v) => Bound::Included(IndexKey::from_value(v)?),
                Bound::Excluded(v) => Bound::Excluded(IndexKey::from_value(v)?),
            })
        };
        let lo = key_bound(lower)?;
        let hi = key_bound(upper)?;
        let fam = match (&lo, &hi) {
            (Bound::Included(k) | Bound::Excluded(k), _)
            | (_, Bound::Included(k) | Bound::Excluded(k)) => k.family(),
            _ => return None,
        };
        let lo = match lo {
            Bound::Unbounded => Bound::Included(family_min(fam)),
            b => b,
        };
        let hi = match hi {
            Bound::Unbounded => family_max(fam),
            b => b,
        };
        self.hist.estimate_range(&lo, &hi)
    }

    /// Walk all indexed items in `ORDER BY c_{j+1}, c_{j+2}, …` order
    /// (ascending [`Value::cmp_order`], `Missing`/NULL last — or fully
    /// reversed), restricted to the equality prefix `eq` on the first `j`
    /// columns. `None` while any record is excluded (the walk would be
    /// incomplete).
    fn ordered_walk(
        &self,
        eq: &[Value],
        descending: bool,
    ) -> Option<Box<dyn Iterator<Item = Id> + '_>> {
        if self.lossy_numerics + self.unkeyable > 0 || eq.len() > self.columns.len() {
            return None;
        }
        let mut prefix: Vec<CompositeSeg> = Vec::with_capacity(eq.len() + 1);
        for v in eq {
            match IndexKey::from_value(v) {
                Some(ik) => prefix.push(CompositeSeg::Key(ik)),
                None if IndexKey::never_matches(v) => {
                    return Some(Box::new(std::iter::empty()));
                }
                None => return None,
            }
        }
        let mut hi = prefix.clone();
        hi.push(CompositeSeg::Hi);
        let (lo, hi) = (Bound::Included(prefix), Bound::Excluded(hi));
        if descending {
            Some(Box::new(
                self.map
                    .range_rev(lo, hi)
                    .flat_map(|(_, set)| set.iter().copied()),
            ))
        } else {
            Some(Box::new(
                self.map
                    .range(lo, hi)
                    .flat_map(|(_, set)| set.iter().copied()),
            ))
        }
    }

    fn stats(&self) -> IndexStats {
        // Missing-leading vectors sort after every keyed one; at width 1
        // there is at most one such bucket.
        let missing_distinct = self
            .map
            .range(
                Bound::Included(vec![CompositeSeg::Missing]),
                Bound::Unbounded,
            )
            .count();
        IndexStats {
            total: self.total,
            distinct: self.map.len(),
            keyed_total: self.keyed,
            keyed_distinct: self.map.len() - missing_distinct,
        }
    }
}

/// Whether trailing-column key bounds denote an empty interval.
fn range_keys_empty(lo: &Bound<IndexKey>, hi: &Bound<IndexKey>) -> bool {
    match (lo, hi) {
        (Bound::Included(a), Bound::Included(b)) => a > b,
        (Bound::Included(a), Bound::Excluded(b))
        | (Bound::Excluded(a), Bound::Included(b))
        | (Bound::Excluded(a), Bound::Excluded(b)) => a >= b,
        _ => false,
    }
}

/// The set of property indexes of a graph, generic over the item id
/// (nodes keyed by label, relationships by type), maintained through
/// every mutation *and undo* path of [`crate::Graph`].
#[derive(Debug, Clone)]
pub struct CompositeIndex<Id> {
    /// Entries are `Arc`-shared so a copy-on-write clone of the whole
    /// index (every published commit boundary) bumps refcounts instead of
    /// deep-copying per-entry statistics; mutators go through
    /// [`Arc::make_mut`] on the entries they touch only.
    by_label: HashMap<Arc<str>, Vec<Arc<CompositeEntries<Id>>>>,
}

impl<Id> Default for CompositeIndex<Id> {
    fn default() -> Self {
        CompositeIndex {
            by_label: HashMap::new(),
        }
    }
}

impl<Id: Ord + Copy> CompositeIndex<Id> {
    /// Declare an index on `(label, columns)`. Returns `false` when it
    /// already exists or `columns` is empty or repeats a column. The
    /// caller (the store) populates it from the live extent.
    pub fn create(&mut self, label: &str, columns: &[String]) -> bool {
        let repeats = columns
            .iter()
            .enumerate()
            .any(|(i, c)| columns[..i].contains(c));
        if columns.is_empty() || repeats || self.is_indexed(label, columns) {
            return false;
        }
        let entry = Arc::new(CompositeEntries::new(columns));
        match self.by_label.get_mut(label) {
            Some(defs) => defs.push(entry),
            None => {
                self.by_label.insert(label.into(), vec![entry]);
            }
        }
        true
    }

    /// Drop the index on `(label, columns)`; `false` when absent.
    pub fn drop_index(&mut self, label: &str, columns: &[String]) -> bool {
        let Some(defs) = self.by_label.get_mut(label) else {
            return false;
        };
        let Some(pos) = defs.iter().position(|e| *e.columns == *columns) else {
            return false;
        };
        defs.remove(pos);
        if defs.is_empty() {
            self.by_label.remove(label);
        }
        true
    }

    /// Whether `(label, columns)` is indexed.
    pub fn is_indexed(&self, label: &str, columns: &[String]) -> bool {
        self.entry(label, columns).is_some()
    }

    /// All `(label, columns)` definitions, sorted.
    pub fn definitions(&self) -> Vec<(String, Vec<String>)> {
        let mut out: Vec<(String, Vec<String>)> = self
            .by_label
            .iter()
            .flat_map(|(l, defs)| {
                defs.iter()
                    .map(move |e| (l.to_string(), e.columns.to_vec()))
            })
            .collect();
        out.sort();
        out
    }

    /// The column lists indexed under `label`, in creation order (planner
    /// discovery; shared, so listing them copies no strings).
    pub fn defs_for_label(&self, label: &str) -> Vec<Arc<[String]>> {
        self.by_label
            .get(label)
            .map(|defs| defs.iter().map(|e| e.columns.clone()).collect())
            .unwrap_or_default()
    }

    /// Index one item under every given label. `changed` names the one
    /// property a mutation touches: definitions not carrying it keep
    /// their entry and are skipped (`None` = every definition — the item
    /// or one of its labels is appearing).
    pub fn index_item<'l>(
        &mut self,
        labels: impl IntoIterator<Item = &'l str>,
        props: &PropertyMap,
        id: Id,
        changed: Option<&str>,
    ) {
        self.for_entries(labels, changed, |e| e.insert(props, id));
    }

    /// Remove one item's entries under every given label (exact inverse
    /// of [`CompositeIndex::index_item`] on the same `props`).
    pub fn deindex_item<'l>(
        &mut self,
        labels: impl IntoIterator<Item = &'l str>,
        props: &PropertyMap,
        id: Id,
        changed: Option<&str>,
    ) {
        self.for_entries(labels, changed, |e| e.remove(props, id));
    }

    fn for_entries<'l>(
        &mut self,
        labels: impl IntoIterator<Item = &'l str>,
        changed: Option<&str>,
        mut f: impl FnMut(&mut CompositeEntries<Id>),
    ) {
        if self.by_label.is_empty() {
            return; // mutation fast path: no index anywhere
        }
        for label in labels {
            for e in self.by_label.get_mut(label).into_iter().flatten() {
                if changed.is_none_or(|key| e.columns.iter().any(|c| c == key)) {
                    f(Arc::make_mut(e));
                }
            }
        }
    }

    /// Insert one item into one specific definition (index creation
    /// populating from the live extent).
    pub fn insert_into(&mut self, label: &str, columns: &[String], props: &PropertyMap, id: Id) {
        let defs = self.by_label.get_mut(label).into_iter().flatten();
        if let Some(e) = defs.into_iter().find(|e| *e.columns == *columns) {
            Arc::make_mut(e).insert(props, id);
        }
    }

    /// The ids matching `probe` on `(label, probe.columns)`, ascending.
    /// `None` = the index cannot answer faithfully (not indexed,
    /// unkeyable probe values, exclusion rules — see module docs) and the
    /// caller must fall back.
    pub fn lookup(&self, label: &str, probe: IndexProbe<'_>) -> Option<Vec<Id>> {
        self.entry(label, probe.columns)?.lookup(probe)
    }

    /// Count-only probe mirroring [`CompositeIndex::lookup`] (histogram
    /// estimate for leading-column ranges, exact counts otherwise).
    pub fn count(&self, label: &str, probe: IndexProbe<'_>) -> Option<usize> {
        self.entry(label, probe.columns)?.count(probe)
    }

    /// Ordered walk in `ORDER BY` order over the columns after the
    /// equality prefix; see the module docs for ordering semantics.
    pub fn ordered_walk(
        &self,
        label: &str,
        columns: &[String],
        eq: &[Value],
        descending: bool,
    ) -> Option<Box<dyn Iterator<Item = Id> + '_>> {
        self.entry(label, columns)?.ordered_walk(eq, descending)
    }

    /// Cardinality statistics of a definition.
    pub fn stats(&self, label: &str, columns: &[String]) -> Option<IndexStats> {
        Some(self.entry(label, columns)?.stats())
    }

    /// Rebuild every leading-column histogram from the live key space
    /// (post-bulk-load refresh; see [`crate::Graph::rebuild_stats`]).
    pub fn rebuild_stats(&mut self) {
        for e in self.by_label.values_mut().flatten() {
            Arc::make_mut(e).rebuild_hist();
        }
    }

    fn entry(&self, label: &str, columns: &[String]) -> Option<&CompositeEntries<Id>> {
        let defs = self.by_label.get(label)?;
        defs.iter().find(|e| *e.columns == *columns).map(|e| &**e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, RelId};
    use std::iter::once;

    type NodeIndex = CompositeIndex<NodeId>;

    fn put(ix: &mut NodeIndex, label: &str, props: &PropertyMap, id: NodeId) {
        ix.index_item(once(label), props, id, None);
    }

    fn take(ix: &mut NodeIndex, label: &str, props: &PropertyMap, id: NodeId) {
        ix.deindex_item(once(label), props, id, None);
    }

    fn lookup(
        ix: &NodeIndex,
        label: &str,
        columns: &[String],
        eq: &[Value],
        trailing: CompositeTrailing<'_>,
    ) -> Option<Vec<u64>> {
        let probe = IndexProbe {
            columns,
            eq,
            trailing,
        };
        Some(ix.lookup(label, probe)?.into_iter().map(|n| n.0).collect())
    }

    fn count(
        ix: &NodeIndex,
        label: &str,
        columns: &[String],
        eq: &[Value],
        trailing: CompositeTrailing<'_>,
    ) -> Option<usize> {
        let probe = IndexProbe {
            columns,
            eq,
            trailing,
        };
        ix.count(label, probe)
    }

    /// `(total, distinct)` of a definition.
    fn totals(ix: &NodeIndex, label: &str, columns: &[String]) -> Option<(usize, usize)> {
        ix.stats(label, columns).map(|st| (st.total, st.distinct))
    }

    fn props(entries: &[(&str, Value)]) -> PropertyMap {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn cols(cs: &[&str]) -> Vec<String> {
        cs.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn create_drop_and_definitions() {
        let mut ix = NodeIndex::default();
        assert!(ix.definitions().is_empty());
        assert!(ix.create("A", &cols(&["x", "y"])));
        assert!(!ix.create("A", &cols(&["x", "y"]))); // duplicate
        assert!(!ix.create("A", &[])); // no columns
        assert!(!ix.create("A", &cols(&["x", "x"]))); // repeated column
        assert!(ix.create("A", &cols(&["y", "x"]))); // order matters
        assert!(ix.create("B", &cols(&["x", "y", "z"])));
        assert_eq!(
            ix.definitions(),
            vec![
                ("A".to_string(), cols(&["x", "y"])),
                ("A".to_string(), cols(&["y", "x"])),
                ("B".to_string(), cols(&["x", "y", "z"])),
            ]
        );
        assert!(ix.drop_index("A", &cols(&["y", "x"])));
        assert!(!ix.drop_index("A", &cols(&["y", "x"])));
        assert_eq!(ix.defs_for_label("A"), vec![cols(&["x", "y"]).into()]);
        assert!(ix.is_indexed("B", &cols(&["x", "y", "z"])));
    }

    /// A small (status, severity) fixture: the paper's §6 conjunction shape.
    fn fixture() -> NodeIndex {
        let mut ix = NodeIndex::default();
        ix.create("P", &cols(&["status", "severity"]));
        let rows: &[(&str, Option<i64>)] = &[
            ("icu", Some(9)),  // 0
            ("icu", Some(7)),  // 1
            ("icu", None),     // 2 — missing severity
            ("ward", Some(9)), // 3
            ("ward", Some(1)), // 4
            ("home", Some(0)), // 5
        ];
        for (i, (status, sev)) in rows.iter().enumerate() {
            let mut entries = vec![("status", Value::str(*status))];
            if let Some(s) = sev {
                entries.push(("severity", Value::Int(*s)));
            }
            put(&mut ix, "P", &props(&entries), NodeId(i as u64));
        }
        ix
    }

    #[test]
    fn full_width_equality_and_trailing_range() {
        let ix = fixture();
        let c = cols(&["status", "severity"]);
        // full-width equality
        assert_eq!(
            lookup(
                &ix,
                "P",
                &c,
                &[Value::str("icu"), Value::Int(9)],
                CompositeTrailing::None
            ),
            Some(vec![0])
        );
        // equality prefix + trailing range (the §6 conjunction)
        assert_eq!(
            lookup(
                &ix,
                "P",
                &c,
                &[Value::str("icu")],
                CompositeTrailing::Range(Bound::Included(&Value::Int(8)), Bound::Unbounded)
            ),
            Some(vec![0])
        );
        assert_eq!(
            lookup(
                &ix,
                "P",
                &c,
                &[Value::str("icu")],
                CompositeTrailing::Range(Bound::Excluded(&Value::Int(7)), Bound::Unbounded)
            ),
            Some(vec![0])
        );
        assert_eq!(
            lookup(
                &ix,
                "P",
                &c,
                &[Value::str("ward")],
                CompositeTrailing::Range(Bound::Unbounded, Bound::Excluded(&Value::Int(9)))
            ),
            Some(vec![4])
        );
        // a missing trailing value satisfies no range
        assert_eq!(
            lookup(
                &ix,
                "P",
                &c,
                &[Value::str("icu")],
                CompositeTrailing::Range(Bound::Included(&Value::Int(0)), Bound::Unbounded)
            ),
            Some(vec![0, 1])
        );
        // sub-width equality prefix covers missing trailing values
        assert_eq!(
            lookup(&ix, "P", &c, &[Value::str("icu")], CompositeTrailing::None),
            Some(vec![0, 1, 2])
        );
        // NULL probe values are definitively empty
        assert_eq!(
            lookup(
                &ix,
                "P",
                &c,
                &[Value::Null, Value::Int(1)],
                CompositeTrailing::None
            ),
            Some(vec![])
        );
        // unknown definition / unkeyable probe → refuse
        assert_eq!(
            lookup(&ix, "P", &cols(&["a", "b"]), &[], CompositeTrailing::None),
            None
        );
        assert_eq!(
            lookup(
                &ix,
                "P",
                &c,
                &[Value::list([Value::Int(1)])],
                CompositeTrailing::None
            ),
            None
        );
        // counts agree with lookups
        assert_eq!(
            count(&ix, "P", &c, &[Value::str("icu")], CompositeTrailing::None),
            Some(3)
        );
        assert_eq!(
            count(
                &ix,
                "P",
                &c,
                &[Value::str("icu")],
                CompositeTrailing::Range(Bound::Included(&Value::Int(8)), Bound::Unbounded)
            ),
            Some(1)
        );
        assert_eq!(totals(&ix, "P", &c), Some((6, 6)));
    }

    #[test]
    fn trailing_prefix_bound() {
        let mut ix = NodeIndex::default();
        let c = cols(&["k", "s"]);
        ix.create("A", &c);
        for (i, (k, s)) in [(1i64, "alpha"), (1, "alphabet"), (1, "beta"), (2, "alpha")]
            .iter()
            .enumerate()
        {
            put(
                &mut ix,
                "A",
                &props(&[("k", Value::Int(*k)), ("s", Value::str(*s))]),
                NodeId(i as u64),
            );
        }
        assert_eq!(
            lookup(
                &ix,
                "A",
                &c,
                &[Value::Int(1)],
                CompositeTrailing::Prefix("alpha")
            ),
            Some(vec![0, 1])
        );
        assert_eq!(
            lookup(
                &ix,
                "A",
                &c,
                &[Value::Int(1)],
                CompositeTrailing::Prefix("z")
            ),
            Some(vec![])
        );
        // the empty prefix matches every string (and only strings)
        put(&mut ix, "A", &props(&[("k", Value::Int(1))]), NodeId(9));
        assert_eq!(
            lookup(
                &ix,
                "A",
                &c,
                &[Value::Int(1)],
                CompositeTrailing::Prefix("")
            ),
            Some(vec![0, 1, 2])
        );
        assert_eq!(
            count(
                &ix,
                "A",
                &c,
                &[Value::Int(1)],
                CompositeTrailing::Prefix("alp")
            ),
            Some(2)
        );
    }

    #[test]
    fn remove_and_reindex_round_trip() {
        let mut ix = fixture();
        let c = cols(&["status", "severity"]);
        let p = props(&[("status", Value::str("icu")), ("severity", Value::Int(9))]);
        take(&mut ix, "P", &p, NodeId(0));
        assert_eq!(
            lookup(
                &ix,
                "P",
                &c,
                &[Value::str("icu"), Value::Int(9)],
                CompositeTrailing::None
            ),
            Some(vec![])
        );
        assert_eq!(totals(&ix, "P", &c), Some((5, 5)));
        put(&mut ix, "P", &p, NodeId(0));
        assert_eq!(
            lookup(
                &ix,
                "P",
                &c,
                &[Value::str("icu"), Value::Int(9)],
                CompositeTrailing::None
            ),
            Some(vec![0])
        );
    }

    #[test]
    fn exclusions_refuse_sub_width_probes_only() {
        let mut ix = NodeIndex::default();
        let c = cols(&["a", "b"]);
        ix.create("A", &c);
        put(
            &mut ix,
            "A",
            &props(&[("a", Value::Int(1)), ("b", Value::Int(5))]),
            NodeId(0),
        );
        // a record with an unkeyable column value is excluded whole
        let excluded = props(&[("a", Value::Int(1)), ("b", Value::list([Value::Int(1)]))]);
        put(&mut ix, "A", &excluded, NodeId(1));
        // sub-width probes could miss it → refused
        assert_eq!(
            lookup(&ix, "A", &c, &[Value::Int(1)], CompositeTrailing::None),
            None
        );
        // full-width equality stays answerable (a keyable probe never
        // eq3-equals the excluded list)
        assert_eq!(
            lookup(
                &ix,
                "A",
                &c,
                &[Value::Int(1), Value::Int(5)],
                CompositeTrailing::None
            ),
            Some(vec![0])
        );
        // ordered walks refuse
        assert!(ix.ordered_walk("A", &c, &[], false).is_none());
        // removing the exclusion restores everything
        take(&mut ix, "A", &excluded, NodeId(1));
        assert_eq!(
            lookup(&ix, "A", &c, &[Value::Int(1)], CompositeTrailing::None),
            Some(vec![0])
        );
        assert!(ix.ordered_walk("A", &c, &[], false).is_some());
    }

    #[test]
    fn lossy_numerics_refuse_numeric_trailing_ranges() {
        let bound = 1i64 << 53;
        let mut ix = NodeIndex::default();
        let c = cols(&["a", "b"]);
        ix.create("A", &c);
        put(
            &mut ix,
            "A",
            &props(&[("a", Value::Int(1)), ("b", Value::Int(5))]),
            NodeId(0),
        );
        let lossy = props(&[("a", Value::Int(1)), ("b", Value::Int(bound + 1))]);
        put(&mut ix, "A", &lossy, NodeId(1));
        // the lossy record would satisfy `b > 0` but is not indexed
        assert_eq!(
            lookup(
                &ix,
                "A",
                &c,
                &[Value::Int(1)],
                CompositeTrailing::Range(Bound::Excluded(&Value::Int(0)), Bound::Unbounded)
            ),
            None
        );
        // full-width equality still answers
        assert_eq!(
            lookup(
                &ix,
                "A",
                &c,
                &[Value::Int(1), Value::Int(5)],
                CompositeTrailing::None
            ),
            Some(vec![0])
        );
        take(&mut ix, "A", &lossy, NodeId(1));
        assert_eq!(
            lookup(
                &ix,
                "A",
                &c,
                &[Value::Int(1)],
                CompositeTrailing::Range(Bound::Excluded(&Value::Int(0)), Bound::Unbounded)
            ),
            Some(vec![0])
        );
    }

    #[test]
    fn ordered_walk_is_order_by_order() {
        let ix = fixture();
        let c = cols(&["status", "severity"]);
        // ORDER BY status, severity ascending: home < icu < ward by
        // status; within icu 7 < 9 < missing (NULL last)
        let asc: Vec<u64> = ix
            .ordered_walk("P", &c, &[], false)
            .unwrap()
            .map(|n: NodeId| n.0)
            .collect();
        assert_eq!(asc, vec![5, 1, 0, 2, 4, 3]);
        // descending is the exact reverse (Missing leads, NULL-first)
        let desc: Vec<u64> = ix
            .ordered_walk("P", &c, &[], true)
            .unwrap()
            .map(|n: NodeId| n.0)
            .collect();
        let mut rev = asc.clone();
        rev.reverse();
        assert_eq!(desc, rev);
        // pinned to the equality prefix status='icu': ORDER BY severity
        let pinned: Vec<u64> = ix
            .ordered_walk("P", &c, &[Value::str("icu")], false)
            .unwrap()
            .map(|n: NodeId| n.0)
            .collect();
        assert_eq!(pinned, vec![1, 0, 2]);
        // a never-matching pin is an empty walk, not a refusal
        assert_eq!(
            ix.ordered_walk("P", &c, &[Value::Null], false)
                .unwrap()
                .count(),
            0
        );
    }

    #[test]
    fn mixed_family_segments_order_like_cmp_order() {
        let mut ix = NodeIndex::default();
        let c = cols(&["a", "b"]);
        ix.create("M", &c);
        let rows = [
            (Value::str("s"), Value::Int(1)),    // 0
            (Value::Bool(false), Value::Int(0)), // 1
            (Value::Int(0), Value::str("x")),    // 2
            (Value::Float(0.5), Value::Int(0)),  // 3
            (Value::Date(3), Value::Int(0)),     // 4
        ];
        for (i, (a, b)) in rows.iter().enumerate() {
            put(
                &mut ix,
                "M",
                &props(&[("a", a.clone()), ("b", b.clone())]),
                NodeId(i as u64),
            );
        }
        let asc: Vec<u64> = ix
            .ordered_walk("M", &c, &[], false)
            .unwrap()
            .map(|n: NodeId| n.0)
            .collect();
        // cmp_order family rank: strings < bools < numerics < dates
        assert_eq!(asc, vec![0, 1, 2, 3, 4]);
        // a numeric trailing range on the leading column sees only numerics
        assert_eq!(
            lookup(
                &ix,
                "M",
                &c,
                &[],
                CompositeTrailing::Range(Bound::Included(&Value::Int(0)), Bound::Unbounded)
            ),
            Some(vec![2, 3])
        );
    }

    #[test]
    fn leading_column_histogram_estimates() {
        let mut ix = NodeIndex::default();
        let c = cols(&["a", "b"]);
        ix.create("A", &c);
        for i in 0..2000i64 {
            put(
                &mut ix,
                "A",
                &props(&[("a", Value::Int(i)), ("b", Value::Int(i % 7))]),
                NodeId(i as u64),
            );
        }
        assert_eq!(totals(&ix, "A", &c), Some((2000, 2000)));
        let est = count(
            &ix,
            "A",
            &c,
            &[],
            CompositeTrailing::Range(
                Bound::Included(&Value::Int(0)),
                Bound::Excluded(&Value::Int(200)),
            ),
        )
        .unwrap();
        let depth = 2000usize.div_ceil(32);
        let bound = 2 * depth + 2000 / 8;
        assert!(est.abs_diff(200) <= bound, "est {est} too far from 200");
    }

    // --------------------------------------------------------------
    // Width 1: a single-key index is the same core. `single` indexes one
    // value per node id under `("A", ["x"])`; `eq`/`range`/`prefix`
    // express the three single-key probe shapes.
    // --------------------------------------------------------------

    fn single(values: &[Value]) -> NodeIndex {
        let mut ix = NodeIndex::default();
        assert!(ix.create("A", &cols(&["x"])));
        for (i, v) in values.iter().enumerate() {
            put(&mut ix, "A", &props(&[("x", v.clone())]), NodeId(i as u64));
        }
        ix
    }

    fn eq(ix: &NodeIndex, v: &Value) -> Option<Vec<u64>> {
        let one = std::slice::from_ref(v);
        lookup(ix, "A", &cols(&["x"]), one, CompositeTrailing::None)
    }

    fn range(ix: &NodeIndex, lo: Bound<&Value>, hi: Bound<&Value>) -> Option<Vec<u64>> {
        lookup(
            ix,
            "A",
            &cols(&["x"]),
            &[],
            CompositeTrailing::Range(lo, hi),
        )
    }

    fn prefix(ix: &NodeIndex, p: &str) -> Option<Vec<u64>> {
        lookup(ix, "A", &cols(&["x"]), &[], CompositeTrailing::Prefix(p))
    }

    #[test]
    fn single_key_lookup_distinguishes_empty_from_unanswerable() {
        let ix = single(&[Value::Int(1)]);
        assert_eq!(eq(&ix, &Value::Int(1)), Some(vec![0]));
        // cross-type numeric equality answered from the same key
        assert_eq!(eq(&ix, &Value::Float(1.0)), Some(vec![0]));
        // indexed, absent value → definitive empty
        assert_eq!(eq(&ix, &Value::Int(2)), Some(vec![]));
        // NULL / NaN equal nothing → definitive empty
        assert_eq!(eq(&ix, &Value::Null), Some(vec![]));
        assert_eq!(eq(&ix, &Value::Float(f64::NAN)), Some(vec![]));
        // lists and huge numerics cannot be answered
        assert_eq!(eq(&ix, &Value::list([Value::Int(1)])), None);
        assert_eq!(eq(&ix, &Value::Int(i64::MAX)), None);
        // unindexed (label, key)
        let one = [Value::Int(1)];
        let none = CompositeTrailing::None;
        assert_eq!(lookup(&ix, "A", &cols(&["y"]), &one, none), None);
        assert_eq!(lookup(&ix, "B", &cols(&["x"]), &one, none), None);
    }

    #[test]
    fn single_key_remove_prunes_empty_buckets() {
        let v = Value::str("v");
        let mut ix = single(&[v.clone(), v.clone()]);
        take(&mut ix, "A", &props(&[("x", v.clone())]), NodeId(0));
        assert_eq!(eq(&ix, &v), Some(vec![1]));
        take(&mut ix, "A", &props(&[("x", v.clone())]), NodeId(1));
        assert_eq!(eq(&ix, &v), Some(vec![]));
        assert_eq!(totals(&ix, "A", &cols(&["x"])), Some((0, 0)));
    }

    #[test]
    fn single_key_numeric_ranges_interleave_ints_and_floats() {
        let ix = single(&[
            Value::Int(1),
            Value::Float(1.5),
            Value::Int(2),
            Value::Float(2.5),
            Value::Int(3),
        ]);
        use Bound::*;
        // closed interval crossing the Int/Float interleave
        assert_eq!(
            range(&ix, Included(&Value::Float(1.5)), Excluded(&Value::Int(3))),
            Some(vec![1, 2, 3])
        );
        // one-sided ranges
        assert_eq!(
            range(&ix, Excluded(&Value::Int(2)), Unbounded),
            Some(vec![3, 4])
        );
        assert_eq!(
            range(&ix, Unbounded, Included(&Value::Float(1.5))),
            Some(vec![0, 1])
        );
        // inverted and cross-family ranges are definitively empty
        assert_eq!(
            range(&ix, Included(&Value::Int(5)), Included(&Value::Int(4))),
            Some(vec![])
        );
        assert_eq!(
            range(&ix, Included(&Value::Int(1)), Included(&Value::str("z"))),
            Some(vec![])
        );
        // NULL bounds compare to nothing
        assert_eq!(range(&ix, Excluded(&Value::Null), Unbounded), Some(vec![]));
        // both-unbounded is not a range predicate
        assert_eq!(range(&ix, Unbounded, Unbounded), None);
    }

    #[test]
    fn single_key_ranges_respect_type_families() {
        let ix = single(&[
            Value::Int(5),
            Value::str("m"),
            Value::Bool(true),
            Value::Date(10),
            Value::DateTime(10),
        ]);
        use Bound::*;
        // a string range sees only strings (cmp3 is NULL across types)
        assert_eq!(
            range(&ix, Included(&Value::str("a")), Unbounded),
            Some(vec![1])
        );
        // a numeric range sees only numerics, not dates
        assert_eq!(
            range(&ix, Included(&Value::Int(0)), Unbounded),
            Some(vec![0])
        );
        // date vs datetime stay separate
        assert_eq!(
            range(&ix, Included(&Value::Date(0)), Unbounded),
            Some(vec![3])
        );
        assert_eq!(
            range(&ix, Unbounded, Included(&Value::DateTime(99))),
            Some(vec![4])
        );
        assert_eq!(
            range(&ix, Excluded(&Value::Bool(false)), Unbounded),
            Some(vec![2])
        );
    }

    #[test]
    fn single_key_lossy_numerics_disable_numeric_ranges_only() {
        let bound = 1i64 << 53;
        // a stored out-of-range numeric would satisfy `> 0` but is not in
        // the index: numeric ranges must refuse, equality must still work.
        let lossy = Value::Int(bound + 1);
        let mut ix = single(&[Value::Int(1), Value::str("s"), lossy.clone()]);
        use Bound::*;
        assert_eq!(range(&ix, Excluded(&Value::Int(0)), Unbounded), None);
        assert_eq!(eq(&ix, &Value::Int(1)), Some(vec![0]));
        // string ranges and prefix scans are unaffected
        assert_eq!(
            range(&ix, Included(&Value::str("")), Unbounded),
            Some(vec![1])
        );
        assert_eq!(prefix(&ix, "s"), Some(vec![1]));
        // count probes refuse exactly like lookups
        let from0 = CompositeTrailing::Range(Included(&Value::Int(0)), Unbounded);
        assert_eq!(count(&ix, "A", &cols(&["x"]), &[], from0), None);
        // removing the lossy value re-enables numeric ranges
        take(&mut ix, "A", &props(&[("x", lossy)]), NodeId(2));
        assert_eq!(
            range(&ix, Excluded(&Value::Int(0)), Unbounded),
            Some(vec![0])
        );
        // an out-of-range *bound* is refused even with a clean index
        assert_eq!(range(&ix, Included(&Value::Int(bound)), Unbounded), None);
        // NaN bounds compare to nothing → definitively empty
        assert_eq!(
            range(&ix, Included(&Value::Float(f64::NAN)), Unbounded),
            Some(vec![])
        );
    }

    #[test]
    fn single_key_prefix_matches_starts_with() {
        let ix = single(&[
            Value::str("alpha"),
            Value::str("alphabet"),
            Value::str("beta"),
            Value::Int(7), // non-string: never matches
        ]);
        assert_eq!(prefix(&ix, "alpha"), Some(vec![0, 1]));
        assert_eq!(prefix(&ix, "alphabe"), Some(vec![1]));
        assert_eq!(prefix(&ix, "z"), Some(vec![]));
        // empty prefix matches every string (and only strings)
        assert_eq!(prefix(&ix, ""), Some(vec![0, 1, 2]));
        let p = CompositeTrailing::Prefix("alp");
        assert_eq!(count(&ix, "A", &cols(&["x"]), &[], p), Some(2));
    }

    #[test]
    fn single_key_counts_and_stats() {
        let values: Vec<Value> = (0..50).map(|i| Value::Int(i % 10)).collect();
        let mut ix = single(&values);
        let c = cols(&["x"]);
        let none = CompositeTrailing::None;
        // equality: exact count, no materialization
        assert_eq!(count(&ix, "A", &c, &[Value::Int(3)], none), Some(5));
        assert_eq!(count(&ix, "A", &c, &[Value::Int(99)], none), Some(0));
        assert_eq!(count(&ix, "A", &c, &[Value::Null], none), Some(0));
        assert_eq!(count(&ix, "A", &c, &[Value::Int(i64::MAX)], none), None);
        // a property-less node is indexed under the missing marker: it
        // joins the whole-extent totals but not the keyed ones
        put(&mut ix, "A", &PropertyMap::new(), NodeId(50));
        assert_eq!(
            ix.stats("A", &c),
            Some(IndexStats {
                total: 51,
                distinct: 11,
                keyed_total: 50,
                keyed_distinct: 10,
            })
        );
        // range count: an estimate within the documented error bound
        // (2·depth + drift), never counting the missing marker
        let below5 = CompositeTrailing::Range(
            Bound::Included(&Value::Int(0)),
            Bound::Excluded(&Value::Int(5)),
        );
        let est = count(&ix, "A", &c, &[], below5).unwrap();
        let bound = 2 * 50usize.div_ceil(32) + 16;
        assert!(est.abs_diff(25) <= bound, "estimate {est} too far from 25");
    }

    #[test]
    fn single_key_ordered_walk_matches_cmp_order_with_missing_last() {
        // mixed families: cmp_order ranks Str < Bool < numerics < Date
        let mut ix = single(&[
            Value::Int(2),
            Value::Float(1.5),
            Value::str("b"),
            Value::str("a"),
            Value::Bool(true),
            Value::Date(7),
        ]);
        put(&mut ix, "A", &PropertyMap::new(), NodeId(6)); // NULL key
        let c = cols(&["x"]);
        let walk = |ix: &NodeIndex, desc: bool| -> Option<Vec<u64>> {
            Some(ix.ordered_walk("A", &c, &[], desc)?.map(|n| n.0).collect())
        };
        // "a", "b", true, 1.5, 2, date(7), NULL
        assert_eq!(walk(&ix, false), Some(vec![3, 2, 4, 1, 0, 5, 6]));
        // descending is the exact reverse: NULL leads
        assert_eq!(walk(&ix, true), Some(vec![6, 5, 0, 1, 4, 2, 3]));
        // walks refuse while unkeyable values are present…
        let list = props(&[("x", Value::list([Value::Int(1)]))]);
        put(&mut ix, "A", &list, NodeId(9));
        assert_eq!(walk(&ix, false), None);
        take(&mut ix, "A", &list, NodeId(9));
        assert!(walk(&ix, false).is_some());
        // …and while lossy numerics are present
        let lossy = props(&[("x", Value::Int(1 << 60))]);
        put(&mut ix, "A", &lossy, NodeId(9));
        assert_eq!(walk(&ix, false), None);
        take(&mut ix, "A", &lossy, NodeId(9));
        assert!(walk(&ix, false).is_some());
    }

    #[test]
    fn changed_key_skips_definitions_not_carrying_it() {
        let mut ix = NodeIndex::default();
        let (x, xy) = (cols(&["x"]), cols(&["x", "y"]));
        ix.create("A", &x);
        ix.create("A", &xy);
        let before = props(&[("x", Value::Int(1)), ("y", Value::Int(2))]);
        put(&mut ix, "A", &before, NodeId(0));
        // `y` changes: only the definition carrying it is touched, and the
        // deindex/reindex pair leaves every entry exact
        let after = props(&[("x", Value::Int(1)), ("y", Value::Int(3))]);
        ix.deindex_item(once("A"), &before, NodeId(0), Some("y"));
        ix.index_item(once("A"), &after, NodeId(0), Some("y"));
        let none = CompositeTrailing::None;
        assert_eq!(lookup(&ix, "A", &x, &[Value::Int(1)], none), Some(vec![0]));
        let old = [Value::Int(1), Value::Int(2)];
        let new = [Value::Int(1), Value::Int(3)];
        assert_eq!(lookup(&ix, "A", &xy, &old, none), Some(vec![]));
        assert_eq!(lookup(&ix, "A", &xy, &new, none), Some(vec![0]));
        assert_eq!(totals(&ix, "A", &x), Some((1, 1)));
        assert_eq!(totals(&ix, "A", &xy), Some((1, 1)));
    }

    #[test]
    fn rel_index_is_the_same_core() {
        let mut ix: CompositeIndex<RelId> = CompositeIndex::default();
        let w = cols(&["w"]);
        assert!(ix.create("R", &w));
        ix.index_item(once("R"), &props(&[("w", Value::Int(5))]), RelId(1), None);
        ix.index_item(once("R"), &props(&[("w", Value::Int(9))]), RelId(2), None);
        let five = [Value::Int(5)];
        let eq5 = IndexProbe {
            columns: &w,
            eq: &five,
            trailing: CompositeTrailing::None,
        };
        assert_eq!(ix.lookup("R", eq5), Some(vec![RelId(1)]));
        assert_eq!(ix.lookup("S", eq5), None);
        ix.deindex_item(once("R"), &props(&[("w", Value::Int(5))]), RelId(1), None);
        assert_eq!(ix.lookup("R", eq5), Some(vec![]));
        assert_eq!(ix.definitions(), vec![("R".to_string(), w.clone())]);
    }
}
