//! One node's relationships in one direction, grouped by type.
//!
//! An [`Adjacency`] holds `(relationship, other end)` pairs ([`Hop`]s) back
//! to back in one slice, in **runs by relationship type**: the types in
//! the order the node first saw them, each run in insertion order. So the
//! store lends a typed hop exactly the run it can take and an untyped hop
//! the whole slice, both without allocating, and a hop reaches the other
//! end without opening the relationship record — the per-type
//! relationship groups Neo4j keeps for dense nodes.
//!
//! A node with one relationship in a direction keeps it inline and costs
//! no heap block; more relationships of one type cost one block, the hop
//! vector, as a flat id list did. The type sits inline, and a run
//! directory is allocated only for a second type. The type names are the
//! store's type-index keys, so a new run bumps a reference count and
//! allocates no string.

use crate::ids::{Hop, RelId};
use std::sync::Arc;

/// See the module docs. Never empty: the store drops a list whose last
/// hop goes.
#[derive(Debug, Clone)]
pub(crate) struct Adjacency {
    hops: Hops,
    runs: Runs,
}

/// The hops of an [`Adjacency`]: exactly one inline, or two or more.
#[derive(Debug, Clone)]
enum Hops {
    One(Hop),
    Many(Vec<Hop>),
}

/// The run directory of an [`Adjacency`].
#[derive(Debug, Clone)]
enum Runs {
    /// Every hop has this type.
    One(Arc<str>),
    /// Two or more types in first-seen order, each with the end (exclusive)
    /// of its run in the hops; the last end is their count.
    Many(Vec<(Arc<str>, usize)>),
}

impl Adjacency {
    /// A list holding one hop of type `ty`.
    pub(crate) fn new(ty: Arc<str>, hop: Hop) -> Adjacency {
        Adjacency {
            hops: Hops::One(hop),
            runs: Runs::One(ty),
        }
    }

    /// Every hop, runs back to back.
    pub(crate) fn all(&self) -> &[Hop] {
        match &self.hops {
            Hops::One(hop) => std::slice::from_ref(hop),
            Hops::Many(hops) => hops,
        }
    }

    /// The run of type `ty` (empty when the node has none).
    pub(crate) fn run(&self, ty: &str) -> &[Hop] {
        self.find(ty)
            .map_or(&[], |(_, start, end)| &self.all()[start..end])
    }

    /// Each type with its run, in first-seen order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (&str, &[Hop])> {
        let (one, many) = match &self.runs {
            Runs::One(ty) => (Some((&**ty, self.all().len())), &[][..]),
            Runs::Many(runs) => (None, &runs[..]),
        };
        let ends = one
            .into_iter()
            .chain(many.iter().map(|(ty, end)| (&**ty, *end)));
        let mut start = 0;
        ends.map(move |(ty, end)| {
            let run = &self.all()[start..end];
            start = end;
            (ty, run)
        })
    }

    /// Append `hop` to the run of `ty`; `key` supplies the shared type
    /// name when the node starts a run of it.
    pub(crate) fn push(&mut self, ty: &str, hop: Hop, key: impl FnOnce() -> Arc<str>) {
        let (len, found) = (self.all().len(), self.find(ty));
        let at = match (&mut self.runs, found) {
            (Runs::One(_), Some(_)) => len,
            (Runs::One(first), None) => {
                self.runs = Runs::Many(vec![(first.clone(), len), (key(), len + 1)]);
                len
            }
            (Runs::Many(runs), Some((i, _, end))) => {
                runs[i..].iter_mut().for_each(|(_, end)| *end += 1);
                end
            }
            (Runs::Many(runs), None) => {
                runs.push((key(), len + 1));
                len
            }
        };
        match &mut self.hops {
            Hops::One(first) => {
                let pair = if at == 0 {
                    [hop, *first]
                } else {
                    [*first, hop]
                };
                self.hops = Hops::Many(pair.to_vec());
            }
            Hops::Many(hops) => hops.insert(at, hop),
        }
    }

    /// Remove relationship `rid` from the run of `ty`. Returns whether it
    /// was the last hop, which leaves the list as it was for the caller to
    /// drop.
    pub(crate) fn remove(&mut self, ty: &str, rid: RelId) -> bool {
        let Some((i, start, end)) = self.find(ty) else {
            return false;
        };
        let Some(at) = self.all()[start..end].iter().position(|h| h.0 == rid) else {
            return false;
        };
        let Hops::Many(hops) = &mut self.hops else {
            return true;
        };
        hops.remove(start + at);
        if let [only] = hops[..] {
            self.hops = Hops::One(only);
        }
        if let Runs::Many(runs) = &mut self.runs {
            runs[i..].iter_mut().for_each(|(_, end)| *end -= 1);
            if start + 1 == end {
                runs.remove(i);
            }
            if let [(only, _)] = &runs[..] {
                self.runs = Runs::One(only.clone());
            }
        }
        false
    }

    /// The run of `ty`: its index in the directory and its bounds.
    fn find(&self, ty: &str) -> Option<(usize, usize, usize)> {
        match &self.runs {
            Runs::One(only) => (**only == *ty).then_some((0, 0, self.all().len())),
            Runs::Many(runs) => {
                let i = runs.iter().position(|(t, _)| **t == *ty)?;
                let start = if i == 0 { 0 } else { runs[i - 1].1 };
                Some((i, start, runs[i].1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn hop(r: u64) -> Hop {
        (RelId(r), NodeId(100 + r))
    }

    /// Apply `script` (`(type, rel, insert?)`) to an adjacency and to a
    /// flat twin that keeps insertion order; after every step each type's
    /// run must equal the twin filtered to that type, and the whole list
    /// the runs concatenated in first-seen order.
    fn check(script: &[(&str, u64, bool)]) {
        let mut adj: Option<Adjacency> = None;
        let mut twin: Vec<(&str, Hop)> = Vec::new();
        for &(ty, r, insert) in script {
            if insert {
                twin.push((ty, hop(r)));
                match &mut adj {
                    Some(a) => a.push(ty, hop(r), || Arc::from(ty)),
                    None => adj = Some(Adjacency::new(Arc::from(ty), hop(r))),
                }
            } else {
                twin.retain(|&(_, h)| h.0 != RelId(r));
                if adj.as_mut().is_some_and(|a| a.remove(ty, RelId(r))) {
                    adj = None;
                }
            }
            let mut types: Vec<&str> = Vec::new();
            for (t, _) in &twin {
                if !types.contains(t) {
                    types.push(t);
                }
            }
            let Some(a) = &adj else {
                assert!(twin.is_empty(), "dropped while {twin:?} remain");
                continue;
            };
            let want = |t: &str| -> Vec<Hop> {
                twin.iter().filter(|(u, _)| *u == t).map(|x| x.1).collect()
            };
            for t in ["A", "B", "C"] {
                assert_eq!(a.run(t), &want(t)[..], "run {t} after {script:?}");
            }
            let runs: Vec<(&str, Vec<Hop>)> = a.runs().map(|(t, r)| (t, r.to_vec())).collect();
            let want_runs: Vec<(&str, Vec<Hop>)> = types.iter().map(|t| (*t, want(t))).collect();
            assert_eq!(runs, want_runs);
            let all: Vec<Hop> = want_runs.into_iter().flat_map(|(_, r)| r).collect();
            assert_eq!(a.all(), &all[..]);
            assert_eq!(matches!(a.hops, Hops::One(_)), all.len() == 1);
            assert_eq!(matches!(a.runs, Runs::One(_)), types.len() == 1);
        }
    }

    #[test]
    fn runs_keep_first_seen_type_order_and_insertion_order() {
        check(&[
            ("A", 1, true),
            ("B", 2, true),
            ("A", 3, true),
            ("C", 4, true),
            ("B", 5, true),
            ("A", 6, true),
        ]);
    }

    #[test]
    fn removal_shrinks_runs_and_collapses_the_directory() {
        check(&[
            ("A", 1, true),
            ("B", 2, true),
            ("A", 3, true),
            ("B", 2, false),
            ("C", 4, true),
            ("A", 1, false),
            ("A", 3, false),
            ("C", 5, true),
            ("A", 6, true),
            ("C", 4, false),
            ("C", 5, false),
            ("B", 9, false),
            ("A", 6, false),
        ]);
    }

    #[test]
    fn one_hop_is_inline_and_one_type_one_heap_block() {
        let mut a = Adjacency::new(Arc::from("T"), hop(1));
        assert!(matches!(a.hops, Hops::One(_)));
        a.push("T", hop(2), || unreachable!("the run exists"));
        assert!(matches!(a.hops, Hops::Many(_)) && matches!(a.runs, Runs::One(_)));
        assert!(!a.remove("T", RelId(1)));
        assert!(matches!(a.hops, Hops::One(_)));
        assert!(
            a.remove("T", RelId(2)),
            "the last hop is the caller's to drop"
        );
        // The hop storage and the inline directory: no more than a flat
        // list beside a fat type pointer and a tag.
        assert!(std::mem::size_of::<Option<Adjacency>>() <= 48);
    }
}
