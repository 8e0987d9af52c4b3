//! Persistent id-indexed maps for the store's records and adjacency.
//!
//! [`IdMap`] is a 32-way radix trie over the dense `u64` ids the store
//! allocates — a wide persistent trie in the sense of Bagwell's *Ideal
//! Hash Trees* (2001), without the hashing: ids are already dense, so each
//! level is indexed by the next 5-bit digit of the id itself. A lookup
//! walks at most ⌈64/5⌉ = 13 array slots, and 4 for up to a million ids,
//! where the [`crate::pmap`] treap chases O(log n) pointers.
//!
//! Trie nodes sit behind [`Arc`], one allocation each:
//!
//! * a `clone` is one reference-count bump of the root;
//! * a mutation path-copies ([`Arc::make_mut`]) only the root-to-leaf
//!   nodes still shared with another version, so a writer that mutates
//!   repeatedly between snapshot publications pays each copy once per
//!   published version — the publication contract of `docs/mvcc.md`;
//! * a miss (`get_mut`, `remove` of an absent id) copies nothing.
//!
//! Iteration is in ascending id order. Removal prunes subtrees that become
//! empty, so a map emptied by removals holds no trie nodes at all.

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

/// Id bits consumed per trie level.
const BITS: u32 = 5;
/// Children (or values) per trie node.
const WIDTH: usize = 1 << BITS;
/// Levels that cover every `u64` id (`BITS * MAX_LEVELS >= 64`).
const MAX_LEVELS: u32 = 64_u32.div_ceil(BITS);

type Link<V> = Option<Arc<Node<V>>>;

/// One trie node. Level 0 holds values; every level above holds children
/// whose level is one lower, so the variant is fixed by the level.
// Every node already sits in its own `Arc` allocation; boxing the larger
// variant would make each node two allocations and each read one more hop.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Node<V> {
    Inner([Link<V>; WIDTH]),
    Leaf([Option<V>; WIDTH]),
}

impl<V> Node<V> {
    fn empty(level: u32) -> Self {
        if level == 0 {
            Node::Leaf(std::array::from_fn(|_| None))
        } else {
            Node::Inner(std::array::from_fn(|_| None))
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Node::Inner(kids) => kids.iter().all(Option::is_none),
            Node::Leaf(vals) => vals.iter().all(Option::is_none),
        }
    }
}

/// The slot `id` takes in a node at `level`.
fn slot(id: u64, level: u32) -> usize {
    ((id >> (BITS * level)) as usize) & (WIDTH - 1)
}

/// A persistent map from dense ids to values. See the module docs.
pub struct IdMap<K, V> {
    root: Link<V>,
    /// Trie levels under and including the root: the root covers the ids
    /// below `32^levels` (0 exactly when `root` is `None`).
    levels: u32,
    len: usize,
    _key: PhantomData<K>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap {
            root: None,
            levels: 0,
            len: 0,
            _key: PhantomData,
        }
    }
}

impl<K, V> Clone for IdMap<K, V> {
    fn clone(&self) -> Self {
        IdMap {
            root: self.root.clone(),
            levels: self.levels,
            len: self.len,
            _key: PhantomData,
        }
    }
}

impl<K: From<u64> + fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, V> IdMap<K, V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the trie is deep enough to hold `id`.
    fn covers(&self, id: u64) -> bool {
        self.levels >= MAX_LEVELS || id >> (BITS * self.levels) == 0
    }

    /// `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut stack = Vec::new();
        if let Some(root) = self.root.as_deref() {
            stack.push(Frame {
                node: root,
                base: 0,
                level: self.levels - 1,
                next: 0,
            });
        }
        Iter {
            stack,
            remaining: self.len,
            _key: PhantomData,
        }
    }

    /// Ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_
    where
        K: From<u64>,
    {
        self.iter().map(|(k, _)| k)
    }

    /// Values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V>
    where
        K: From<u64>,
    {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Copy + Into<u64>, V: Clone> IdMap<K, V> {
    pub fn get(&self, key: &K) -> Option<&V> {
        let id: u64 = (*key).into();
        if !self.covers(id) {
            return None;
        }
        let mut node = self.root.as_deref()?;
        let mut level = self.levels - 1;
        loop {
            match node {
                Node::Inner(kids) => node = kids[slot(id, level)].as_deref()?,
                Node::Leaf(vals) => return vals[slot(id, level)].as_ref(),
            }
            level -= 1;
        }
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Mutable access to a present id, path-copying whatever is shared on
    /// the way down. A miss copies nothing.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if !self.contains_key(key) {
            return None;
        }
        self.slot_mut((*key).into()).as_mut()
    }

    /// Insert, returning the previous value of `key` (if any).
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let old = self.slot_mut(key.into()).replace(val);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value slot of `id`, growing the trie to cover it and creating
    /// or path-copying every node on the way down. Leaves `len` to the
    /// caller.
    fn slot_mut(&mut self, id: u64) -> &mut Option<V> {
        if self.root.is_none() {
            self.levels = 1;
            while !self.covers(id) {
                self.levels += 1;
            }
            self.root = Some(Arc::new(Node::empty(self.levels - 1)));
        }
        while !self.covers(id) {
            // Grow by one level: the old root becomes child 0, which holds
            // every id it covered before.
            let mut kids: [Link<V>; WIDTH] = std::array::from_fn(|_| None);
            kids[0] = self.root.take();
            self.root = Some(Arc::new(Node::Inner(kids)));
            self.levels += 1;
        }
        let mut level = self.levels - 1;
        let mut node = Arc::make_mut(self.root.as_mut().expect("grown above"));
        loop {
            match node {
                Node::Inner(kids) => {
                    let child = kids[slot(id, level)]
                        .get_or_insert_with(|| Arc::new(Node::empty(level - 1)));
                    node = Arc::make_mut(child);
                }
                Node::Leaf(vals) => return &mut vals[slot(id, level)],
            }
            level -= 1;
        }
    }

    /// Remove `key`, returning its value; subtrees left empty are pruned.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if !self.contains_key(key) {
            return None;
        }
        let out = Self::remove_rec(&mut self.root, (*key).into(), self.levels - 1);
        self.len -= 1;
        if self.root.is_none() {
            self.levels = 0;
        }
        out
    }

    fn remove_rec(link: &mut Link<V>, id: u64, level: u32) -> Option<V> {
        let node = Arc::make_mut(link.as_mut()?);
        let out = match node {
            Node::Inner(kids) => Self::remove_rec(&mut kids[slot(id, level)], id, level - 1),
            Node::Leaf(vals) => vals[slot(id, level)].take(),
        };
        if node.is_empty() {
            *link = None;
        }
        out
    }
}

/// A node being walked: its first covered id, its level, and the next
/// slot to visit.
struct Frame<'a, V> {
    node: &'a Node<V>,
    base: u64,
    level: u32,
    next: usize,
}

/// Ascending-id iterator over an [`IdMap`].
pub struct Iter<'a, K, V> {
    stack: Vec<Frame<'a, V>>,
    remaining: usize,
    _key: PhantomData<K>,
}

impl<'a, K: From<u64>, V> Iterator for Iter<'a, K, V> {
    type Item = (K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let top = self.stack.last_mut()?;
            if top.next == WIDTH {
                self.stack.pop();
                continue;
            }
            let i = top.next;
            top.next += 1;
            let id = top.base | ((i as u64) << (BITS * top.level));
            match top.node {
                Node::Leaf(vals) => {
                    if let Some(v) = &vals[i] {
                        self.remaining -= 1;
                        return Some((K::from(id), v));
                    }
                }
                Node::Inner(kids) => {
                    if let Some(child) = kids[i].as_deref() {
                        let level = top.level - 1;
                        self.stack.push(Frame {
                            node: child,
                            base: id,
                            level,
                            next: 0,
                        });
                    }
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeMap;

    #[test]
    fn height_grows_with_the_largest_id() {
        let mut m: IdMap<u64, u64> = IdMap::new();
        assert_eq!(m.levels, 0);
        m.insert(31, 1);
        assert_eq!(m.levels, 1);
        m.insert(32, 2);
        assert_eq!(m.levels, 2);
        m.insert(1 << 15, 3);
        assert_eq!(m.levels, 4);
        m.insert(u64::MAX, 4);
        assert_eq!(m.levels, MAX_LEVELS);
        let got: Vec<(u64, u64)> = m.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(got, [(31, 1), (32, 2), (1 << 15, 3), (u64::MAX, 4)]);
        assert_eq!(m.get(&u64::MAX), Some(&4));
        assert_eq!(m.get(&(u64::MAX - 1)), None);
    }

    /// Ids on both sides of every height step: 32, 32², 32³ and 32⁴ ids
    /// need one more level than the id before them.
    const POOL: [u64; 16] = [
        0,
        1,
        31,
        32,
        33,
        1023,
        1024,
        1025,
        32_767,
        32_768,
        32_769,
        (1 << 20) - 1,
        1 << 20,
        (1 << 20) + 1,
        u64::MAX - 1,
        u64::MAX,
    ];

    #[derive(Debug, Clone)]
    enum Step {
        Insert(u64, u64),
        Remove(u64),
        GetMut(u64, u64),
        Clone,
    }

    fn id_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![
            (0..POOL.len()).prop_map(|i| POOL[i]),
            (0..POOL.len()).prop_map(|i| POOL[i]),
            0u64..40_000,
        ]
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            (id_strategy(), 0u64..1000).prop_map(|(id, v)| Step::Insert(id, v)),
            (id_strategy(), 0u64..1000).prop_map(|(id, v)| Step::Insert(id, v)),
            id_strategy().prop_map(Step::Remove),
            (id_strategy(), 0u64..1000).prop_map(|(id, v)| Step::GetMut(id, v)),
            Just(Step::Clone),
        ]
    }

    /// `map` holds exactly `want`: length, ascending iteration, and a
    /// lookup of every id either of them could hold.
    fn same(map: &IdMap<u64, u64>, want: &BTreeMap<u64, u64>) -> Result<(), TestCaseError> {
        prop_assert_eq!(map.len(), want.len());
        let got: Vec<(u64, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
        let expected: Vec<(u64, u64)> = want.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, expected);
        for id in POOL.iter().chain(want.keys()) {
            prop_assert_eq!(map.get(id), want.get(id));
        }
        Ok(())
    }

    proptest! {
        /// The map against a `BTreeMap` twin under random scripts, with
        /// clones taken mid-script: every clone must still read back its
        /// own version after the live map moved on, and emptying the live
        /// map must leave no trie node behind.
        #[test]
        fn mirrors_btreemap_and_clones_keep_their_version(
            steps in prop::collection::vec(step_strategy(), 1..120),
        ) {
            let mut map: IdMap<u64, u64> = IdMap::new();
            let mut twin: BTreeMap<u64, u64> = BTreeMap::new();
            let mut versions = Vec::new();
            for step in &steps {
                match *step {
                    Step::Insert(id, v) => prop_assert_eq!(map.insert(id, v), twin.insert(id, v)),
                    Step::Remove(id) => prop_assert_eq!(map.remove(&id), twin.remove(&id)),
                    Step::GetMut(id, v) => {
                        let got = map.get_mut(&id).map(|slot| std::mem::replace(slot, v));
                        let want = twin.get_mut(&id).map(|slot| std::mem::replace(slot, v));
                        prop_assert_eq!(got, want);
                    }
                    Step::Clone => versions.push((map.clone(), twin.clone())),
                }
                prop_assert_eq!(map.len(), twin.len());
            }
            same(&map, &twin)?;
            for (version, want) in &versions {
                same(version, want)?;
            }
            for id in twin.keys() {
                prop_assert!(map.remove(id).is_some());
            }
            prop_assert!(map.is_empty() && map.iter().next().is_none());
            prop_assert!(map.root.is_none());
            prop_assert_eq!(map.levels, 0);
            for (version, want) in &versions {
                same(version, want)?;
            }
        }
    }

    #[test]
    fn send_sync_when_contents_are() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IdMap<u64, String>>();
    }
}
