//! Persistent (copy-on-write) ordered collections for snapshot isolation.
//!
//! [`PMap`] is an ordered map backed by a treap whose nodes are shared
//! through [`Arc`]: cloning a map is O(1) (it clones the root pointer),
//! and a mutation copies only the O(log n) path from the root to the
//! touched node — and only the *shared* prefix of that path
//! ([`Arc::make_mut`] skips nodes with a reference count of 1, so a
//! writer that mutates repeatedly between snapshot publications pays the
//! path copy once per published version, not once per write).
//!
//! This is what makes the store's MVCC-lite cheap in both directions:
//!
//! * **publish** (`Graph::snapshot`) is an `Arc` clone of the whole store
//!   state — no per-element work at all;
//! * **write-after-publish** is a single O(log n) path copy per touched
//!   key, after which the writer owns its path again and mutates in
//!   place.
//!
//! Treap priorities are derived deterministically from an insertion
//! counter fed through a 64-bit mixer, so the tree stays balanced in
//! expectation (O(log n) depth w.h.p.) without any runtime randomness —
//! rebuilding the same store from the same op sequence yields the same
//! shape, which keeps test failures reproducible.
//!
//! The API mirrors the `BTreeMap`/`BTreeSet` subset the extents and the
//! index layers actually use: `get`/`get_mut`/`insert`/`remove`, ordered
//! iteration, and bounded forward/reverse range walks ([`PMap::range`],
//! [`PMap::range_rev`]) for the ordered-index access paths. Records and
//! adjacency, which are read by dense id and never by range, live in
//! [`crate::idmap::IdMap`] instead.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// SplitMix64: turns the sequential insertion counter into well-mixed
/// treap priorities.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

type Link<K, V> = Option<Arc<Node<K, V>>>;

#[derive(Debug, Clone)]
struct Node<K, V> {
    prio: u64,
    key: K,
    val: V,
    left: Link<K, V>,
    right: Link<K, V>,
}

/// A persistent ordered map (copy-on-write treap). See the module docs.
#[derive(Clone)]
pub struct PMap<K, V> {
    root: Link<K, V>,
    len: usize,
    /// Insertion counter feeding the deterministic priority mixer.
    seq: u64,
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap {
            root: None,
            len: 0,
            seq: 0,
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, V> PMap<K, V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// In-order iteration over `(key, value)` pairs.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut it = Iter { stack: Vec::new() };
        it.push_left(self.root.as_deref());
        it
    }

    /// Ordered keys.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(&n.key) {
                Ordering::Equal => return Some(&n.val),
                Ordering::Less => cur = n.left.as_deref(),
                Ordering::Greater => cur = n.right.as_deref(),
            }
        }
        None
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Mutable access to a present key, path-copying any shared nodes on
    /// the way down. Misses are detected with a read-only probe first so
    /// they never copy anything.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if !self.contains_key(key) {
            return None;
        }
        Some(Self::get_mut_rec(&mut self.root, key))
    }

    fn get_mut_rec<'a>(link: &'a mut Link<K, V>, key: &K) -> &'a mut V {
        let rc = link.as_mut().expect("presence checked by get_mut");
        let node = Arc::make_mut(rc);
        match key.cmp(&node.key) {
            Ordering::Equal => &mut node.val,
            Ordering::Less => Self::get_mut_rec(&mut node.left, key),
            Ordering::Greater => Self::get_mut_rec(&mut node.right, key),
        }
    }

    /// Insert, returning the previous value of `key` (if any). An
    /// overwrite keeps the existing node's priority (the shape of the
    /// tree does not depend on overwrites).
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let prio = mix(self.seq);
        self.seq = self.seq.wrapping_add(1);
        let old = Self::insert_rec(&mut self.root, key, val, prio);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_rec(link: &mut Link<K, V>, key: K, val: V, prio: u64) -> Option<V> {
        let Some(rc) = link.as_mut() else {
            *link = Some(Arc::new(Node {
                prio,
                key,
                val,
                left: None,
                right: None,
            }));
            return None;
        };
        let node = Arc::make_mut(rc);
        let (old, rot) = match key.cmp(&node.key) {
            Ordering::Equal => (Some(std::mem::replace(&mut node.val, val)), 0i8),
            Ordering::Less => {
                let old = Self::insert_rec(&mut node.left, key, val, prio);
                let lift = node.left.as_ref().is_some_and(|l| l.prio > node.prio);
                (old, if lift { 1 } else { 0 })
            }
            Ordering::Greater => {
                let old = Self::insert_rec(&mut node.right, key, val, prio);
                let lift = node.right.as_ref().is_some_and(|r| r.prio > node.prio);
                (old, if lift { -1 } else { 0 })
            }
        };
        match rot {
            1 => Self::rotate_right(link),
            -1 => Self::rotate_left(link),
            _ => {}
        }
        old
    }

    /// Rotate `link`'s left child up (heap-order repair after a left
    /// insert).
    fn rotate_right(link: &mut Link<K, V>) {
        let mut y = link.take().expect("rotate on empty link");
        let y_mut = Arc::make_mut(&mut y);
        let mut x = y_mut.left.take().expect("rotate_right without left child");
        let x_mut = Arc::make_mut(&mut x);
        y_mut.left = x_mut.right.take();
        x_mut.right = Some(y);
        *link = Some(x);
    }

    /// Rotate `link`'s right child up.
    fn rotate_left(link: &mut Link<K, V>) {
        let mut y = link.take().expect("rotate on empty link");
        let y_mut = Arc::make_mut(&mut y);
        let mut x = y_mut.right.take().expect("rotate_left without right child");
        let x_mut = Arc::make_mut(&mut x);
        y_mut.right = x_mut.left.take();
        x_mut.left = Some(y);
        *link = Some(x);
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if !self.contains_key(key) {
            return None;
        }
        let out = Self::remove_rec(&mut self.root, key);
        debug_assert!(out.is_some());
        self.len -= 1;
        out
    }

    fn remove_rec(link: &mut Link<K, V>, key: &K) -> Option<V> {
        let rc = link.as_mut()?;
        let node = Arc::make_mut(rc);
        match key.cmp(&node.key) {
            Ordering::Less => Self::remove_rec(&mut node.left, key),
            Ordering::Greater => Self::remove_rec(&mut node.right, key),
            Ordering::Equal => {
                let left = node.left.take();
                let right = node.right.take();
                let removed = link.take().expect("link non-empty");
                *link = Self::merge(left, right);
                Some(match Arc::try_unwrap(removed) {
                    Ok(n) => n.val,
                    Err(shared) => shared.val.clone(),
                })
            }
        }
    }

    /// Merge two treaps where every key of `a` precedes every key of `b`.
    fn merge(a: Link<K, V>, b: Link<K, V>) -> Link<K, V> {
        match (a, b) {
            (None, b) => b,
            (a, None) => a,
            (Some(mut x), Some(mut y)) => {
                if x.prio >= y.prio {
                    let xm = Arc::make_mut(&mut x);
                    let xr = xm.right.take();
                    xm.right = Self::merge(xr, Some(y));
                    Some(x)
                } else {
                    let ym = Arc::make_mut(&mut y);
                    let yl = ym.left.take();
                    ym.left = Self::merge(Some(x), yl);
                    Some(y)
                }
            }
        }
    }

    /// Forward walk of the keys within `(lo, hi)`. Bounds are owned so
    /// the iterator can outlive the caller's temporaries (ordered index
    /// walks return boxed iterators borrowing only the map). An inverted
    /// range yields nothing rather than panicking.
    pub fn range(&self, lo: Bound<K>, hi: Bound<K>) -> Range<'_, K, V> {
        let mut r = Range {
            stack: Vec::new(),
            hi,
        };
        // Descend, keeping only nodes that satisfy the lower bound.
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            let above_lo = match &lo {
                Bound::Unbounded => true,
                Bound::Included(l) => n.key >= *l,
                Bound::Excluded(l) => n.key > *l,
            };
            if above_lo {
                r.stack.push(n);
                cur = n.left.as_deref();
            } else {
                cur = n.right.as_deref();
            }
        }
        r
    }

    /// Reverse (descending) walk of the keys within `(lo, hi)`.
    pub fn range_rev(&self, lo: Bound<K>, hi: Bound<K>) -> RangeRev<'_, K, V> {
        let mut r = RangeRev {
            stack: Vec::new(),
            lo,
        };
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            let below_hi = match &hi {
                Bound::Unbounded => true,
                Bound::Included(h) => n.key <= *h,
                Bound::Excluded(h) => n.key < *h,
            };
            if below_hi {
                r.stack.push(n);
                cur = n.right.as_deref();
            } else {
                cur = n.left.as_deref();
            }
        }
        r
    }
}

/// In-order iterator over a [`PMap`].
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn push_left(&mut self, mut cur: Option<&'a Node<K, V>>) {
        while let Some(n) = cur {
            self.stack.push(n);
            cur = n.left.as_deref();
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        self.push_left(n.right.as_deref());
        Some((&n.key, &n.val))
    }
}

/// Forward bounded-range iterator over a [`PMap`].
pub struct Range<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
    hi: Bound<K>,
}

impl<'a, K: Ord, V> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        let below_hi = match &self.hi {
            Bound::Unbounded => true,
            Bound::Included(h) => n.key <= *h,
            Bound::Excluded(h) => n.key < *h,
        };
        if !below_hi {
            // everything still stacked is larger — fuse
            self.stack.clear();
            return None;
        }
        // The right subtree's keys all exceed n.key ≥ lo, so no lower
        // bound check is needed past the initial descent.
        let mut cur = n.right.as_deref();
        while let Some(c) = cur {
            self.stack.push(c);
            cur = c.left.as_deref();
        }
        Some((&n.key, &n.val))
    }
}

/// Reverse bounded-range iterator over a [`PMap`].
pub struct RangeRev<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
    lo: Bound<K>,
}

impl<'a, K: Ord, V> Iterator for RangeRev<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        let above_lo = match &self.lo {
            Bound::Unbounded => true,
            Bound::Included(l) => n.key >= *l,
            Bound::Excluded(l) => n.key > *l,
        };
        if !above_lo {
            self.stack.clear();
            return None;
        }
        let mut cur = n.left.as_deref();
        while let Some(c) = cur {
            self.stack.push(c);
            cur = c.right.as_deref();
        }
        Some((&n.key, &n.val))
    }
}

/// A persistent ordered set: a [`PMap`] with unit values.
#[derive(Clone)]
pub struct PSet<T> {
    map: PMap<T, ()>,
}

impl<T> Default for PSet<T> {
    fn default() -> Self {
        PSet {
            map: PMap::default(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for PSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T> PSet<T> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Ordered iteration.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.map.keys()
    }
}

impl<T: Ord + Clone> PSet<T> {
    pub fn contains(&self, item: &T) -> bool {
        self.map.contains_key(item)
    }

    /// Insert; `true` when the item was new.
    pub fn insert(&mut self, item: T) -> bool {
        self.map.insert(item, ()).is_none()
    }

    /// Remove; `true` when the item was present.
    pub fn remove(&mut self, item: &T) -> bool {
        self.map.remove(item).is_some()
    }
}

impl<T: Ord + Clone> FromIterator<T> for PSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut s = PSet::new();
        for item in iter {
            s.insert(item);
        }
        s
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = PMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// Number of elements a [`TailSet`] buffers in its sorted tail before
/// flushing them into the treap base. 64 ids fit in a couple of cache
/// lines, and a flush of 64 ascending ids shares most of one spine, so
/// the amortized publication-era path-copy cost per insert approaches
/// `spine / TAIL_MAX` instead of a full spine per insert.
const TAIL_MAX: usize = 64;

/// A persistent ordered set with a small sorted insert buffer ("tail") in
/// front of the treap base.
///
/// Under commit-epoch publication every insert into a shared [`PSet`]
/// path-copies a root-to-leaf spine (O(log n) node allocations against
/// cold cache lines). Label/type extents take that hit twice per created
/// item while ids arrive in ascending order — the worst case for useful
/// work per copy. `TailSet` batches inserts in a plain sorted `Vec`
/// behind an `Arc` (copy-on-write is one small `memcpy`) and only pays
/// the treap spine when the tail spills, amortizing the publication tax
/// by ~`TAIL_MAX`.
///
/// Semantics are identical to [`PSet`]: it is a set, iteration is
/// ascending over the union of base and tail, and `clone` is O(1).
#[derive(Clone)]
pub struct TailSet<T> {
    base: PSet<T>,
    /// Sorted ascending, disjoint from `base`, never longer than
    /// [`TAIL_MAX`]. Shared clones copy-on-write the whole Vec at once.
    tail: Arc<Vec<T>>,
}

impl<T> Default for TailSet<T> {
    fn default() -> Self {
        TailSet {
            base: PSet::default(),
            tail: Arc::new(Vec::new()),
        }
    }
}

impl<T: Ord + Clone + fmt::Debug> fmt::Debug for TailSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T> TailSet<T> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.base.len() + self.tail.len()
    }

    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.tail.is_empty()
    }
}

impl<T: Ord + Clone> TailSet<T> {
    pub fn contains(&self, item: &T) -> bool {
        self.tail.binary_search(item).is_ok() || self.base.contains(item)
    }

    /// Insert; `true` when the item was new.
    pub fn insert(&mut self, item: T) -> bool {
        let pos = match self.tail.binary_search(&item) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        if self.base.contains(&item) {
            return false;
        }
        let tail = Arc::make_mut(&mut self.tail);
        tail.insert(pos, item);
        if tail.len() >= TAIL_MAX {
            for x in tail.drain(..) {
                self.base.insert(x);
            }
        }
        true
    }

    /// Remove; `true` when the item was present.
    pub fn remove(&mut self, item: &T) -> bool {
        // Probe the tail first without copy-on-writing it on a miss.
        if self.tail.binary_search(item).is_ok() {
            let tail = Arc::make_mut(&mut self.tail);
            let pos = tail.binary_search(item).expect("present under make_mut");
            tail.remove(pos);
            true
        } else {
            self.base.remove(item)
        }
    }

    /// Ordered (ascending) iteration over base ∪ tail.
    pub fn iter(&self) -> TailSetIter<'_, T> {
        TailSetIter {
            base: self.base.map.iter().peekable(),
            tail: self.tail.iter().peekable(),
        }
    }
}

impl<T: Ord + Clone> FromIterator<T> for TailSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut s = TailSet::new();
        for item in iter {
            s.insert(item);
        }
        s
    }
}

/// Ascending merge of a [`TailSet`]'s base and tail (disjoint by
/// construction, so no equality tie-break is needed).
pub struct TailSetIter<'a, T> {
    base: std::iter::Peekable<Iter<'a, T, ()>>,
    tail: std::iter::Peekable<std::slice::Iter<'a, T>>,
}

impl<'a, T: Ord> Iterator for TailSetIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        match (self.base.peek(), self.tail.peek()) {
            (Some((b, _)), Some(t)) => {
                if *b < *t {
                    self.base.next().map(|(k, _)| k)
                } else {
                    self.tail.next()
                }
            }
            (Some(_), None) => self.base.next().map(|(k, _)| k),
            (None, _) => self.tail.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Pseudo-random but deterministic op stream.
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    #[test]
    fn mirrors_btreemap_under_random_ops() {
        let mut seed = 0xfeed_u64;
        let mut p: PMap<i64, i64> = PMap::new();
        let mut b: BTreeMap<i64, i64> = BTreeMap::new();
        for step in 0..4000 {
            let k = (lcg(&mut seed) % 200) as i64 - 100;
            match lcg(&mut seed) % 3 {
                0 | 1 => {
                    let v = step as i64;
                    assert_eq!(p.insert(k, v), b.insert(k, v), "insert {k} at {step}");
                }
                _ => {
                    assert_eq!(p.remove(&k), b.remove(&k), "remove {k} at {step}");
                }
            }
            assert_eq!(p.len(), b.len());
        }
        let got: Vec<(i64, i64)> = p.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(i64, i64)> = b.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        for k in -100..100 {
            assert_eq!(p.get(&k), b.get(&k));
        }
    }

    #[test]
    fn range_walks_match_btreemap() {
        let mut seed = 0xabcd_u64;
        let mut p: PMap<i64, i64> = PMap::new();
        let mut b: BTreeMap<i64, i64> = BTreeMap::new();
        for _ in 0..500 {
            let k = (lcg(&mut seed) % 1000) as i64;
            p.insert(k, k * 2);
            b.insert(k, k * 2);
        }
        let bounds = [
            (Bound::Unbounded, Bound::Unbounded),
            (Bound::Included(100), Bound::Excluded(700)),
            (Bound::Excluded(100), Bound::Included(700)),
            (Bound::Included(0), Bound::Included(0)),
            (Bound::Excluded(500), Bound::Excluded(501)),
            (Bound::Included(700), Bound::Excluded(100)), // inverted: empty
            (Bound::Unbounded, Bound::Excluded(50)),
            (Bound::Included(950), Bound::Unbounded),
        ];
        for (lo, hi) in bounds {
            let fwd: Vec<i64> = p.range(lo, hi).map(|(k, _)| *k).collect();
            let rev: Vec<i64> = p.range_rev(lo, hi).map(|(k, _)| *k).collect();
            let want: Vec<i64> = match (lo, hi) {
                // BTreeMap::range panics on inverted bounds; PMap defines
                // them as empty.
                (Bound::Included(l), Bound::Excluded(h)) if l > h => Vec::new(),
                _ => b.range((lo, hi)).map(|(k, _)| *k).collect(),
            };
            let mut want_rev = want.clone();
            want_rev.reverse();
            assert_eq!(fwd, want, "forward range {lo:?}..{hi:?}");
            assert_eq!(rev, want_rev, "reverse range {lo:?}..{hi:?}");
        }
    }

    #[test]
    fn clone_shares_then_diverges() {
        let mut a: PMap<i64, String> = PMap::new();
        for k in 0..100 {
            a.insert(k, format!("v{k}"));
        }
        let frozen = a.clone();
        for k in 0..100 {
            a.insert(k, format!("w{k}"));
        }
        a.remove(&3);
        a.insert(1000, "new".to_string());
        // the clone still sees the original contents
        assert_eq!(frozen.len(), 100);
        for k in 0..100 {
            assert_eq!(
                frozen.get(&k).map(String::as_str),
                Some(format!("v{k}").as_str())
            );
        }
        assert!(!frozen.contains_key(&1000));
        assert_eq!(a.get(&5).map(String::as_str), Some("w5"));
        assert_eq!(a.get(&3), None);
    }

    #[test]
    fn get_mut_copies_only_for_shared_paths() {
        let mut a: PMap<i64, i64> = PMap::new();
        for k in 0..50 {
            a.insert(k, 0);
        }
        let frozen = a.clone();
        *a.get_mut(&25).unwrap() = 99;
        assert_eq!(frozen.get(&25), Some(&0));
        assert_eq!(a.get(&25), Some(&99));
        // miss never copies (observable only through behavior: still None)
        assert_eq!(a.get_mut(&500), None);
    }

    #[test]
    fn balanced_depth_under_sequential_inserts() {
        // sequential keys are the worst case for a naive BST; the mixed
        // priorities must keep the expected O(log n) depth
        let mut a: PMap<u64, ()> = PMap::new();
        let n = 10_000u64;
        for k in 0..n {
            a.insert(k, ());
        }
        fn depth<K, V>(link: &Link<K, V>) -> usize {
            match link {
                None => 0,
                Some(n) => 1 + depth(&n.left).max(depth(&n.right)),
            }
        }
        let d = depth(&a.root);
        // ~1.39·log2(n) expected ≈ 19; allow generous slack
        assert!(d < 60, "treap depth {d} too large for n={n}");
    }

    #[test]
    fn pset_mirrors_btreeset() {
        let mut seed = 0x1234_u64;
        let mut p: PSet<u64> = PSet::new();
        let mut b: std::collections::BTreeSet<u64> = Default::default();
        for _ in 0..2000 {
            let k = lcg(&mut seed) % 128;
            if lcg(&mut seed).is_multiple_of(2) {
                assert_eq!(p.insert(k), b.insert(k));
            } else {
                assert_eq!(p.remove(&k), b.remove(&k));
            }
            assert_eq!(p.len(), b.len());
        }
        let got: Vec<u64> = p.iter().copied().collect();
        let want: Vec<u64> = b.iter().copied().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn deterministic_shape_for_same_history() {
        let build = || {
            let mut m: PMap<i64, i64> = PMap::new();
            for k in [5, 1, 9, 3, 7, 2, 8] {
                m.insert(k, k);
            }
            m
        };
        fn shape<K: Clone, V>(link: &Link<K, V>, out: &mut Vec<(K, u64)>) {
            if let Some(n) = link {
                out.push((n.key.clone(), n.prio));
                shape(&n.left, out);
                shape(&n.right, out);
            }
        }
        let (a, b) = (build(), build());
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        shape(&a.root, &mut sa);
        shape(&b.root, &mut sb);
        assert_eq!(sa, sb);
    }

    #[test]
    fn send_sync_when_contents_are() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PMap<u64, String>>();
        assert_send_sync::<PSet<u64>>();
        assert_send_sync::<TailSet<u64>>();
    }

    #[test]
    fn tailset_mirrors_btreeset() {
        let mut seed = 0xbeef_u64;
        let mut p: TailSet<u64> = TailSet::new();
        let mut b: std::collections::BTreeSet<u64> = Default::default();
        for _ in 0..4000 {
            let k = lcg(&mut seed) % 256;
            if !lcg(&mut seed).is_multiple_of(3) {
                assert_eq!(p.insert(k), b.insert(k));
            } else {
                assert_eq!(p.remove(&k), b.remove(&k));
            }
            assert_eq!(p.len(), b.len());
            assert_eq!(p.is_empty(), b.is_empty());
        }
        for k in 0..256u64 {
            assert_eq!(p.contains(&k), b.contains(&k));
        }
        let got: Vec<u64> = p.iter().copied().collect();
        let want: Vec<u64> = b.iter().copied().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn tailset_ascending_insert_spills_and_stays_ordered() {
        // Ascending ids are the extent workload; cross several flushes.
        let mut p: TailSet<u64> = TailSet::new();
        let n = (TAIL_MAX * 3 + 17) as u64;
        for k in 0..n {
            assert!(p.insert(k));
            assert!(!p.insert(k));
        }
        assert_eq!(p.len(), n as usize);
        let got: Vec<u64> = p.iter().copied().collect();
        let want: Vec<u64> = (0..n).collect();
        assert_eq!(got, want);
        // Remove across the base/tail boundary.
        for k in (0..n).step_by(3) {
            assert!(p.remove(&k));
            assert!(!p.remove(&k));
        }
        let got: Vec<u64> = p.iter().copied().collect();
        let want: Vec<u64> = (0..n).filter(|k| k % 3 != 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn tailset_clone_is_independent() {
        let mut a: TailSet<u64> = (0..100u64).collect();
        let snap = a.clone();
        for k in 100..150u64 {
            a.insert(k);
        }
        a.remove(&7);
        assert_eq!(snap.len(), 100);
        assert!(snap.contains(&7));
        assert!(!snap.contains(&120));
        let got: Vec<u64> = snap.iter().copied().collect();
        let want: Vec<u64> = (0..100).collect();
        assert_eq!(got, want);
    }
}
