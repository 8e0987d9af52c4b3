//! Cardinality statistics for property indexes: equi-depth histograms.
//!
//! The candidate planner in `pg-cypher` costs access paths on the hottest
//! path of the trigger engine (every activating statement re-plans its
//! trigger conditions). Planning must therefore never pay more than
//! O(log n) per probe: equality selectivity is answered exactly from the
//! index bucket sizes, while **range and prefix selectivity** is answered
//! from the equi-depth [`Histogram`] maintained here.
//!
//! A histogram summarizes one `(label, key)` index entry: `bounds[i]` is
//! the inclusive upper [`IndexKey`] of bucket `i`, `counts[i]` the number
//! of indexed items currently attributed to it. Buckets are built with
//! (approximately) equal depth from the live key distribution and then
//! maintained **incrementally**: every insert/remove — including the ones
//! replayed by the undo paths (`rollback`, `rollback_to`, aborted
//! cascades) — adjusts the count of the bucket the key falls into. Because
//! attribution is a pure function of the key and the (fixed) bounds,
//! insert/remove pairs cancel exactly and the histogram total always
//! equals the index total, no matter how mutations and undos interleave.
//!
//! Incremental maintenance keeps totals exact but slowly erodes the
//! *equi-depth* property (a hot bucket can grow arbitrarily deep). A drift
//! counter tracks mutations since the last build; once drift exceeds
//! [`Histogram::stale`]'s threshold the index rebuilds the histogram from
//! the live key space (O(distinct), amortized over the mutations that
//! caused the drift).
//!
//! ## Estimate error bound
//!
//! [`Histogram::estimate_range`] assumes values spread uniformly inside a
//! bucket and charges half of every partially-overlapped bucket. With `B`
//! buckets of depth `d ≈ total/B` and at most `drift < max(16, total/8)`
//! un-rebuilt mutations, the estimate is within `2·d + drift` of the exact
//! count — tight enough to order access paths, and cheap enough (O(B)) to
//! probe on every planning round.

use crate::prop_index::IndexKey;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// Number of buckets a rebuild aims for.
const BUCKETS: usize = 32;

/// An equi-depth histogram over one `(label, key)` index's key space.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Inclusive upper bound of each bucket, ascending. Keys above the last
    /// bound are attributed to the last bucket.
    bounds: Vec<IndexKey>,
    /// Current item count per bucket (kept exact incrementally).
    counts: Vec<usize>,
    /// Mutations since the last rebuild.
    drift: usize,
}

impl Histogram {
    /// Mutations applied since the last rebuild.
    pub fn drift(&self) -> usize {
        self.drift
    }

    /// Whether enough drift accumulated that the owner should rebuild.
    pub fn stale(&self, total: usize) -> bool {
        self.drift > 16.max(total / 8)
    }

    /// The bucket a key is attributed to (pure in the key and bounds).
    fn bucket_of(&self, key: &IndexKey) -> Option<usize> {
        if self.bounds.is_empty() {
            return None;
        }
        let i = self.bounds.partition_point(|b| b < key);
        Some(i.min(self.bounds.len() - 1))
    }

    /// Record an insert of `key` (no-op before the first build; the
    /// eventual rebuild sees the key in the live index).
    pub fn note_insert(&mut self, key: &IndexKey) {
        if let Some(b) = self.bucket_of(key) {
            self.counts[b] += 1;
        }
        self.drift += 1;
    }

    /// Record a removal of `key` (exact inverse of [`Histogram::note_insert`]).
    pub fn note_remove(&mut self, key: &IndexKey) {
        if let Some(b) = self.bucket_of(key) {
            self.counts[b] = self.counts[b].saturating_sub(1);
        }
        self.drift += 1;
    }

    /// Rebuild equal-depth buckets from the live key space.
    pub fn rebuild<Id>(&mut self, keys: &BTreeMap<IndexKey, BTreeSet<Id>>, total: usize) {
        self.rebuild_from(keys.iter().map(|(k, set)| (k, set.len())), total)
    }

    /// Rebuild equal-depth buckets from `(key, count)` pairs that must be
    /// **ascending in [`IndexKey`] order** (composite indexes feed their
    /// leading-column counts through this; `total` is the sum of counts).
    pub fn rebuild_from<'a>(
        &mut self,
        keys: impl Iterator<Item = (&'a IndexKey, usize)>,
        total: usize,
    ) {
        self.bounds.clear();
        self.counts.clear();
        self.drift = 0;
        if total == 0 {
            return;
        }
        let depth = total.div_ceil(BUCKETS).max(1);
        let mut acc = 0usize;
        let mut last: Option<&IndexKey> = None;
        for (k, n) in keys {
            acc += n;
            last = Some(k);
            if acc >= depth {
                self.bounds.push(k.clone());
                self.counts.push(acc);
                acc = 0;
            }
        }
        if acc > 0 {
            // tail bucket for the remainder
            if let Some(k) = last {
                self.bounds.push(k.clone());
                self.counts.push(acc);
            }
        }
    }

    /// Estimated number of items whose key lies within `(lo, hi)`.
    ///
    /// Buckets fully inside the range contribute their whole count,
    /// partially-overlapped buckets half of it (uniformity assumption).
    /// Returns `None` when the histogram has not been built yet — the
    /// caller falls back to an exact (bounded) walk.
    pub fn estimate_range(&self, lo: &Bound<IndexKey>, hi: &Bound<IndexKey>) -> Option<usize> {
        if self.bounds.is_empty() {
            return None;
        }
        let mut est = 0usize;
        for (i, count) in self.counts.iter().enumerate() {
            // bucket i covers (bounds[i-1], bounds[i]]
            let b_hi = &self.bounds[i];
            let b_lo = if i == 0 {
                None
            } else {
                Some(&self.bounds[i - 1])
            };
            // bucket entirely below the range?
            let below = match lo {
                Bound::Unbounded => false,
                Bound::Included(l) => b_hi < l,
                Bound::Excluded(l) => b_hi <= l,
            };
            // bucket entirely above the range?
            let above = match (hi, b_lo) {
                (Bound::Unbounded, _) => false,
                (_, None) => false, // first bucket has no exclusive floor
                (Bound::Included(h), Some(bl)) => bl >= h,
                (Bound::Excluded(h), Some(bl)) => bl >= h,
            };
            if below || above {
                continue;
            }
            // fully contained: the bucket floor clears `lo` and the bucket
            // ceiling clears `hi`.
            let lo_ok = match (lo, b_lo) {
                (Bound::Unbounded, _) => true,
                (_, None) => false,
                (Bound::Included(l), Some(bl)) => bl >= l,
                (Bound::Excluded(l), Some(bl)) => bl >= l,
            };
            let hi_ok = match hi {
                Bound::Unbounded => true,
                Bound::Included(h) => b_hi <= h,
                Bound::Excluded(h) => b_hi < h,
            };
            if lo_ok && hi_ok {
                est += count;
            } else {
                est += count / 2;
            }
        }
        Some(est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_of(vals: &[i64]) -> BTreeMap<IndexKey, BTreeSet<u64>> {
        let mut m: BTreeMap<IndexKey, BTreeSet<u64>> = BTreeMap::new();
        for (i, v) in vals.iter().enumerate() {
            m.entry(IndexKey::Int(*v)).or_default().insert(i as u64);
        }
        m
    }

    #[test]
    fn rebuild_covers_total() {
        let vals: Vec<i64> = (0..1000).collect();
        let keys = keys_of(&vals);
        let mut h = Histogram::default();
        h.rebuild(&keys, 1000);
        assert_eq!(h.counts.iter().sum::<usize>(), 1000);
        // whole-space estimate is exact
        let est = h
            .estimate_range(&Bound::Unbounded, &Bound::Unbounded)
            .unwrap();
        assert_eq!(est, 1000);
    }

    #[test]
    fn estimate_tracks_uniform_ranges() {
        let vals: Vec<i64> = (0..1024).collect();
        let keys = keys_of(&vals);
        let mut h = Histogram::default();
        h.rebuild(&keys, 1024);
        let est = h
            .estimate_range(
                &Bound::Included(IndexKey::Int(0)),
                &Bound::Excluded(IndexKey::Int(512)),
            )
            .unwrap();
        let exact = 512usize;
        let depth = 1024usize.div_ceil(BUCKETS);
        assert!(
            est.abs_diff(exact) <= 2 * depth,
            "est {est} vs exact {exact}"
        );
    }

    #[test]
    fn incremental_updates_keep_total() {
        let vals: Vec<i64> = (0..100).collect();
        let mut keys = keys_of(&vals);
        let mut h = Histogram::default();
        h.rebuild(&keys, 100);
        // insert/remove pairs cancel exactly
        for v in [5i64, 500, -3] {
            h.note_insert(&IndexKey::Int(v));
            keys.entry(IndexKey::Int(v)).or_default().insert(9999);
        }
        h.note_remove(&IndexKey::Int(5));
        assert_eq!(h.counts.iter().sum::<usize>(), 102);
        assert_eq!(h.drift(), 4);
    }

    #[test]
    fn unbuilt_histogram_declines() {
        let h = Histogram::default();
        assert_eq!(h.estimate_range(&Bound::Unbounded, &Bound::Unbounded), None);
        assert!(!h.stale(0) || h.drift() > 16);
    }

    #[test]
    fn skewed_rebuild_still_exact_on_total() {
        // one huge bucket value plus a uniform tail
        let mut vals = vec![7i64; 900];
        for v in 0..100 {
            vals.push(1000 + v);
        }
        let mut m: BTreeMap<IndexKey, BTreeSet<u64>> = BTreeMap::new();
        for (i, v) in vals.iter().enumerate() {
            m.entry(IndexKey::Int(*v)).or_default().insert(i as u64);
        }
        // sets dedup ids, so build totals from set sizes
        let total: usize = m.values().map(|s| s.len()).sum();
        let mut h = Histogram::default();
        h.rebuild(&m, total);
        assert_eq!(h.counts.iter().sum::<usize>(), total);
    }
}
