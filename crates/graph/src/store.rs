//! The graph store: storage, indexes, transactions, the mutation API, and
//! commit-epoch publication for snapshot-isolated readers.

use crate::adjacency::Adjacency;
use crate::composite::{CompositeIndex, CompositeTrailing, IndexProbe, IndexStats};
use crate::delta::Delta;
use crate::error::{GraphError, Result};
use crate::idmap::IdMap;
use crate::ids::{Hop, ItemRef, NodeId, RelId};
use crate::op::Op;
use crate::pmap::TailSet;
use crate::props::PropertyMap;
use crate::record::{NodeRecord, RelRecord};
use crate::snapshot::{GraphHandle, Publisher, Snapshot};
use crate::value::{Direction, Value};
use crate::view::{GraphView, IndexDef, IndexOn, IndexScope, ProbeMode, Probed};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::iter::once;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Debug counters over index probes, for verifying *how* the planner pays
/// for its answers: `materializing` counts lookups that return id vectors
/// (the execution access paths), `counting` the count-only probes and
/// statistics reads (the planning access paths), `ordered` the ordered
/// top-k walks. A planning round over indexed predicates must show
/// `counting` activity and **zero** `materializing` activity — that is the
/// "no candidate-vector materialization during planning" invariant, made
/// observable for tests and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexProbes {
    pub materializing: u64,
    pub counting: u64,
    pub ordered: u64,
    /// Materializing **composite** (multi-key) lookups — a subset of
    /// `materializing`, split out so tests can assert a lookup was
    /// served by a composite index specifically.
    pub composite: u64,
}

/// Atomic probe counters. The live [`Graph`] owns one set and each
/// [`Snapshot`] owns its own, so concurrent readers never race on (or
/// pollute) the writer's counters.
#[derive(Debug, Default)]
pub(crate) struct ProbeCounters {
    materializing: AtomicU64,
    counting: AtomicU64,
    ordered: AtomicU64,
    composite: AtomicU64,
}

impl ProbeCounters {
    pub(crate) fn snapshot(&self) -> IndexProbes {
        IndexProbes {
            materializing: self.materializing.load(AtomicOrdering::Relaxed),
            counting: self.counting.load(AtomicOrdering::Relaxed),
            ordered: self.ordered.load(AtomicOrdering::Relaxed),
            composite: self.composite.load(AtomicOrdering::Relaxed),
        }
    }

    /// Account for one [`GraphView::probe`] call: count-only probes are
    /// `counting`, id lookups `materializing` — and `composite` too when
    /// the definition is multi-key.
    fn note_probe(&self, width: usize, mode: ProbeMode) {
        match mode {
            ProbeMode::Count => self.counting.fetch_add(1, AtomicOrdering::Relaxed),
            ProbeMode::Ids => {
                if width > 1 {
                    self.composite.fetch_add(1, AtomicOrdering::Relaxed);
                }
                self.materializing.fetch_add(1, AtomicOrdering::Relaxed)
            }
        };
    }

    pub(crate) fn reset(&self) {
        self.materializing.store(0, AtomicOrdering::Relaxed);
        self.counting.store(0, AtomicOrdering::Relaxed);
        self.ordered.store(0, AtomicOrdering::Relaxed);
        self.composite.store(0, AtomicOrdering::Relaxed);
    }
}

/// Controls which mutations the store accepts. The PG-Trigger engine uses
/// this to enforce the paper's `BEFORE`-trigger restriction (§4.2: "BEFORE
/// statements should not produce arbitrary changes, but just condition NEW
/// states") and to make condition evaluation provably read-only.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum WritePolicy {
    /// All mutations allowed.
    #[default]
    Unrestricted,
    /// No mutations allowed (condition evaluation).
    ReadOnly,
    /// Only property assignment/removal on the listed items (the NEW items
    /// of the activating statement) is allowed.
    ConditionNewOnly(BTreeSet<ItemRef>),
}

/// An opaque position in the transaction's operation log, delimiting a
/// statement. `Graph::delta_since(mark)` yields the statement-level delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatementMark(usize);

#[derive(Debug, Default)]
struct TxState {
    ops: Vec<Op>,
}

/// The versioned storage of a [`Graph`]: extents, adjacency, and every
/// index, all held in persistent (structurally shared) maps so a `clone`
/// is shallow — O(#labels + #index definitions) pointer copies. Records
/// and adjacency are keyed by dense id in [`IdMap`] radix tries; the
/// ordered treaps of [`crate::pmap`] hold only extents and index keys. This is
/// the unit of commit-epoch publication: everything a snapshot reader
/// needs lives here, while transaction state, id allocators, write policy,
/// and probe counters stay on [`Graph`].
#[derive(Debug, Clone, Default)]
pub(crate) struct StoreState {
    /// Node records by id (ascending iteration also serves `all_node_ids`).
    pub(crate) nodes: IdMap<NodeId, Arc<NodeRecord>>,
    /// Relationship records by id (also serves `all_rel_ids`).
    pub(crate) rels: IdMap<RelId, Arc<RelRecord>>,
    /// Each node's outgoing relationships with their other ends, in runs
    /// by type ([`Adjacency`]); a node without any has no entry.
    out_adj: IdMap<NodeId, Adjacency>,
    /// The same for incoming relationships (a self-loop is on both).
    in_adj: IdMap<NodeId, Adjacency>,
    label_index: HashMap<Arc<str>, TailSet<NodeId>>,
    type_index: HashMap<Arc<str>, TailSet<RelId>>,
    /// Node property indexes (`CREATE INDEX ON :Label(k1, …)`; a single
    /// key is the width-1 case), maintained record-at-a-time through
    /// every mutation and undo path below: a touched record is deindexed
    /// before and reindexed after each change, so the key vector always
    /// reflects the full record.
    node_index: CompositeIndex<NodeId>,
    /// Relationship property indexes (`CREATE INDEX ON -[:TYPE(k1, …)]-`),
    /// maintained through the same paths.
    rel_index: CompositeIndex<RelId>,
    /// Degree statistics: the exact edge counts the planner reads through
    /// [`GraphView::degree_edge_count`]. `degree_stats[label][type]` is
    /// `[out, in]`, each the number of (node-with-label, incident-rel-of-
    /// type) pairs in that direction. Maintained through every mutation
    /// and undo path below — relationship create/delete adjusts the counts
    /// of both endpoints' labels, label set/remove moves the node's
    /// incident relationships in or out.
    degree_stats: HashMap<Arc<str>, HashMap<Arc<str>, [usize; 2]>>,
}

/// Direction index into a `degree_stats` `[out, in]` pair.
const DEG_OUT: usize = 0;
/// Direction index into a `degree_stats` `[out, in]` pair.
const DEG_IN: usize = 1;

/// Insert `id` into `map[key]`, allocating the `Arc<str>` key only on
/// first sight of a label/type — the hot path (existing key) is a plain
/// lookup, and cloning the whole map for publication bumps refcounts
/// instead of copying key strings.
fn extent_insert<Id: Ord + Copy>(map: &mut HashMap<Arc<str>, TailSet<Id>>, key: &str, id: Id) {
    if let Some(ix) = map.get_mut(key) {
        ix.insert(id);
    } else {
        let mut set = TailSet::new();
        set.insert(id);
        map.insert(Arc::from(key), set);
    }
}

/// Add `delta` (±1) to the `dir` edge count of `(label, rel_type)`,
/// creating the `[out, in]` pair on first sight. Same
/// `Arc<str>`-on-first-sight discipline as [`extent_insert`]: the hot path
/// (existing combo) allocates nothing.
fn degree_add(
    map: &mut HashMap<Arc<str>, HashMap<Arc<str>, [usize; 2]>>,
    label: &str,
    rel_type: &str,
    dir: usize,
    delta: isize,
) {
    let by_type = if map.contains_key(label) {
        map.get_mut(label).expect("checked above")
    } else {
        map.entry(Arc::from(label)).or_default()
    };
    let pair = if by_type.contains_key(rel_type) {
        by_type.get_mut(rel_type).expect("checked above")
    } else {
        by_type.entry(Arc::from(rel_type)).or_default()
    };
    pair[dir] = pair[dir].saturating_add_signed(delta);
}

impl StoreState {
    // ------------------------------------------------------------------
    // Raw (index-maintaining, unlogged) helpers
    // ------------------------------------------------------------------

    fn raw_insert_node(&mut self, record: NodeRecord) {
        for l in &record.labels {
            extent_insert(&mut self.label_index, l, record.id);
        }
        self.node_index.index_item(
            record.labels.iter().map(String::as_str),
            &record.props,
            record.id,
            None,
        );
        // Adjacency entries are created on demand by `raw_insert_rel`; a
        // missing entry reads as empty everywhere, and skipping the eager
        // insert saves two trie path-copies per node under publication.
        self.nodes.insert(record.id, Arc::new(record));
    }

    fn raw_remove_node(&mut self, id: NodeId) {
        if let Some(rec) = self.nodes.remove(&id) {
            for l in &rec.labels {
                if let Some(ix) = self.label_index.get_mut(l.as_str()) {
                    ix.remove(&id);
                }
            }
            self.node_index.deindex_item(
                rec.labels.iter().map(String::as_str),
                &rec.props,
                id,
                None,
            );
        }
        self.out_adj.remove(&id);
        self.in_adj.remove(&id);
    }

    fn raw_insert_rel(&mut self, record: RelRecord) {
        extent_insert(&mut self.type_index, &record.rel_type, record.id);
        self.rel_index.index_item(
            once(record.rel_type.as_str()),
            &record.props,
            record.id,
            None,
        );
        let ty = record.rel_type.as_str();
        // A node's first run of a type shares the type index's key.
        let key = || Arc::clone(self.type_index.get_key_value(ty).expect("indexed above").0);
        for (adj, node, other) in [
            (&mut self.out_adj, record.src, record.dst),
            (&mut self.in_adj, record.dst, record.src),
        ] {
            adjacency_push(adj, node, ty, (record.id, other), key);
        }
        self.degree_note_rel(record.src, record.dst, &record.rel_type, 1);
        self.rels.insert(record.id, Arc::new(record));
    }

    fn raw_remove_rel(&mut self, id: RelId) {
        if let Some(rec) = self.rels.remove(&id) {
            if let Some(ix) = self.type_index.get_mut(rec.rel_type.as_str()) {
                ix.remove(&id);
            }
            self.rel_index
                .deindex_item(once(rec.rel_type.as_str()), &rec.props, id, None);
            adjacency_remove(&mut self.out_adj, rec.src, &rec.rel_type, id);
            adjacency_remove(&mut self.in_adj, rec.dst, &rec.rel_type, id);
            self.degree_note_rel(rec.src, rec.dst, &rec.rel_type, -1);
        }
    }

    // ------------------------------------------------------------------
    // Degree-statistics maintenance. Every path that changes a node's
    // incident-rel multiset or its label set funnels through one of the
    // two helpers below; the undo paths replay through the same raw
    // helpers, so insert/remove pairs cancel exactly and the edge counts
    // stay correct no matter how mutations and undos interleave.
    // ------------------------------------------------------------------

    /// Record a relationship appearing (`delta` = 1) or disappearing
    /// (`delta` = -1) between `src` and `dst`: every label of `src`
    /// gains/loses an out-edge of `rel_type`, every label of `dst` an
    /// in-edge. Self-loops touch both directions of the same node, matching
    /// [`GraphView::hops`] (a `Both` estimate sums the two and counts a
    /// self-loop twice; acceptable for a planning estimate).
    fn degree_note_rel(&mut self, src: NodeId, dst: NodeId, rel_type: &str, delta: isize) {
        for (node, dir) in [(src, DEG_OUT), (dst, DEG_IN)] {
            let Some(rec) = self.nodes.get(&node) else {
                continue;
            };
            for label in &rec.labels {
                degree_add(&mut self.degree_stats, label, rel_type, dir, delta);
            }
        }
    }

    /// Move a node's incident relationships into (`delta` = 1) or out of
    /// (`delta` = -1) a label's edge counts when the label is set or
    /// removed: each run of the node's adjacency adds `delta` times its
    /// length to its `(label, type)` entry in its direction — O(types),
    /// no record read.
    fn degree_note_label(&mut self, node: NodeId, label: &str, delta: isize) {
        for (dir, adj) in [
            (DEG_OUT, self.out_adj.get(&node)),
            (DEG_IN, self.in_adj.get(&node)),
        ] {
            for (ty, run) in adj.into_iter().flat_map(Adjacency::runs) {
                let n = delta * run.len() as isize;
                degree_add(&mut self.degree_stats, label, ty, dir, n);
            }
        }
    }

    fn undo_ops(&mut self, ops: &[Op]) {
        for op in ops.iter().rev() {
            match op {
                Op::CreateNode { record } => {
                    self.raw_remove_node(record.id);
                }
                Op::DeleteNode { record } => {
                    self.raw_insert_node(record.clone());
                }
                Op::CreateRel { record } => {
                    self.raw_remove_rel(record.id);
                }
                Op::DeleteRel { record } => {
                    self.raw_insert_rel(record.clone());
                }
                Op::SetLabel { node, label } => {
                    if let Some(n) = self.nodes.get_mut(node) {
                        let n = Arc::make_mut(n);
                        n.labels.remove(label);
                        self.node_index
                            .deindex_item(once(label.as_str()), &n.props, *node, None);
                    }
                    if let Some(ix) = self.label_index.get_mut(label.as_str()) {
                        ix.remove(node);
                    }
                    self.degree_note_label(*node, label, -1);
                }
                Op::RemoveLabel { node, label } => {
                    if let Some(n) = self.nodes.get_mut(node) {
                        let n = Arc::make_mut(n);
                        n.labels.insert(label.clone());
                        self.node_index
                            .index_item(once(label.as_str()), &n.props, *node, None);
                    }
                    extent_insert(&mut self.label_index, label, *node);
                    self.degree_note_label(*node, label, 1);
                }
                Op::SetNodeProp { node, key, old, .. } => {
                    self.put_node_prop(*node, key, old.clone());
                }
                Op::RemoveNodeProp { node, key, old } => {
                    self.put_node_prop(*node, key, Some(old.clone()));
                }
                Op::SetRelProp { rel, key, old, .. } => {
                    self.put_rel_prop(*rel, key, old.clone());
                }
                Op::RemoveRelProp { rel, key, old } => {
                    self.put_rel_prop(*rel, key, Some(old.clone()));
                }
            }
        }
    }

    /// Set (`Some`) or remove (`None`) one node property, reindexing the
    /// record under the definitions that carry `key`; returns the previous
    /// value. `None` when the node does not exist. The one write path for
    /// node properties — mutations and their undo both land here.
    fn put_node_prop(&mut self, node: NodeId, key: &str, value: Option<Value>) -> Option<Value> {
        let rec = Arc::make_mut(self.nodes.get_mut(&node)?);
        let labels = || rec.labels.iter().map(String::as_str);
        self.node_index
            .deindex_item(labels(), &rec.props, node, Some(key));
        let old = match value {
            Some(v) => rec.props.set(key.to_string(), v),
            None => rec.props.remove(key),
        };
        self.node_index
            .index_item(labels(), &rec.props, node, Some(key));
        old
    }

    /// Relationship counterpart of [`StoreState::put_node_prop`].
    fn put_rel_prop(&mut self, rel: RelId, key: &str, value: Option<Value>) -> Option<Value> {
        let rec = Arc::make_mut(self.rels.get_mut(&rel)?);
        let ty = || once(rec.rel_type.as_str());
        self.rel_index
            .deindex_item(ty(), &rec.props, rel, Some(key));
        let old = match value {
            Some(v) => rec.props.set(key.to_string(), v),
            None => rec.props.remove(key),
        };
        self.rel_index.index_item(ty(), &rec.props, rel, Some(key));
        old
    }
}

/// A durability hook invoked at every non-empty commit, *before* the new
/// state is published to snapshot readers.
///
/// The WAL layer (`pg-wal`) implements this to append the committed op
/// stream to disk; the graph itself stays storage-agnostic. The contract:
///
/// * `ops` is the **post-cascade** committed op log — trigger effects are
///   already materialized as plain ops, so replaying them verbatim at
///   recovery reconstructs cascade effects without re-entering trigger
///   dispatch;
/// * `next_node` / `next_rel` are the id-allocator watermarks *after* the
///   transaction (rolled-back work advances them too, so recovery must
///   restore the watermarks from the log, not from surviving records);
/// * returning `Err` vetoes the commit: the graph undoes the
///   transaction's ops and surfaces [`GraphError::Durability`], so a
///   commit either becomes durable or never happened.
pub trait CommitSink: std::fmt::Debug + Send {
    fn on_commit(
        &mut self,
        ops: &[Op],
        next_node: u64,
        next_rel: u64,
    ) -> std::result::Result<(), String>;
}

/// The in-memory property graph.
///
/// Mutations performed while a transaction is active are recorded in an
/// undo-capable operation log; outside a transaction they apply immediately
/// without logging (bulk-load mode, used by data generators).
///
/// The graph is a **single-writer** structure; concurrent readers go
/// through [`Graph::reader_handle`] / [`Graph::snapshot`], which publish
/// immutable, epoch-pinned versions of the storage state (see the
/// [`crate::snapshot`] module). A graph that never publishes pays no
/// copy-on-write cost: the state `Arc` stays unshared and mutations edit
/// in place.
#[derive(Debug, Default)]
pub struct Graph {
    /// The live storage state, possibly shared with published snapshots.
    /// All mutations funnel through [`Graph::state_mut`], which
    /// copy-on-writes whatever is still shared.
    state: Arc<StoreState>,
    next_node: u64,
    next_rel: u64,
    /// The last published commit epoch (0 = the initial empty state).
    epoch: u64,
    /// Whether `state` has diverged from what epoch `epoch` published.
    dirty: bool,
    /// The epoch the publisher slot currently holds; lets clean commit
    /// boundaries (`begin` after a published commit, empty transactions)
    /// skip the slot lock entirely.
    last_published: u64,
    /// Created lazily on first [`Graph::reader_handle`] /
    /// [`Graph::snapshot`]; `None` means exclusive mode.
    publisher: Option<Arc<Publisher>>,
    tx: Option<TxState>,
    policy: WritePolicy,
    /// Debug counters over index probes (see [`IndexProbes`]).
    probes: ProbeCounters,
    /// Durability hook called at every non-empty commit (see [`CommitSink`]).
    sink: Option<Box<dyn CommitSink>>,
}

impl Graph {
    pub fn new() -> Self {
        Graph::default()
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction. Fails if one is already active.
    ///
    /// A transaction start is a commit boundary: any unpublished bulk-load
    /// changes are published first, so snapshots pinned during the
    /// transaction expose the state it started from.
    pub fn begin(&mut self) -> Result<()> {
        if self.tx.is_some() {
            return Err(GraphError::TransactionActive);
        }
        self.maybe_publish();
        self.tx = Some(TxState::default());
        Ok(())
    }

    /// Whether a transaction is active.
    pub fn in_tx(&self) -> bool {
        self.tx.is_some()
    }

    /// Commit the active transaction, returning its full operation log.
    /// Advances the commit epoch and publishes the new state to snapshot
    /// readers.
    ///
    /// When a [`CommitSink`] is attached, a non-empty commit is offered to
    /// it **before** publication; a sink failure undoes the transaction
    /// (as if rolled back) and surfaces [`GraphError::Durability`], so no
    /// state a reader can observe ever lacks its durable record.
    pub fn commit(&mut self) -> Result<Vec<Op>> {
        match self.tx.take() {
            Some(tx) => {
                if !tx.ops.is_empty() {
                    if let Some(mut sink) = self.sink.take() {
                        let res = sink.on_commit(&tx.ops, self.next_node, self.next_rel);
                        self.sink = Some(sink);
                        if let Err(reason) = res {
                            self.state_mut().undo_ops(&tx.ops);
                            self.maybe_publish();
                            return Err(GraphError::Durability(reason));
                        }
                    }
                }
                self.maybe_publish();
                Ok(tx.ops)
            }
            None => Err(GraphError::NoActiveTransaction),
        }
    }

    /// Attach (or with `None`, detach) the durability hook, returning the
    /// previous one. The sink only observes transactional commits: bulk
    /// loads outside a transaction bypass the op log entirely and must be
    /// made durable by a snapshot/checkpoint instead.
    pub fn set_commit_sink(
        &mut self,
        sink: Option<Box<dyn CommitSink>>,
    ) -> Option<Box<dyn CommitSink>> {
        std::mem::replace(&mut self.sink, sink)
    }

    /// Roll back the active transaction, restoring the pre-transaction state.
    pub fn rollback(&mut self) -> Result<()> {
        let tx = self.tx.take().ok_or(GraphError::NoActiveTransaction)?;
        if !tx.ops.is_empty() {
            self.state_mut().undo_ops(&tx.ops);
        }
        self.maybe_publish();
        Ok(())
    }

    /// Run `body` in a transaction of its own: begin, then commit when it
    /// returns `Ok` or roll back when it returns `Err`. A failure to
    /// begin or to commit is returned as the error.
    pub fn transact<T, E: From<GraphError>>(
        &mut self,
        body: impl FnOnce(&mut Graph) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        self.begin()?;
        match body(self) {
            Ok(out) => {
                self.commit()?;
                Ok(out)
            }
            Err(e) => {
                // the transaction begun above is active: rollback succeeds
                let _ = self.rollback();
                Err(e)
            }
        }
    }

    /// Roll back to a statement mark, undoing only the ops after it. Used to
    /// abort a single statement (and its triggers) without losing earlier
    /// work in the transaction.
    pub fn rollback_to(&mut self, mark: StatementMark) -> Result<()> {
        let tx = self.tx.as_mut().ok_or(GraphError::NoActiveTransaction)?;
        let tail: Vec<Op> = tx.ops.split_off(mark.0);
        if !tail.is_empty() {
            self.state_mut().undo_ops(&tail);
        }
        Ok(())
    }

    /// Mark the current position in the op log (a statement boundary).
    pub fn mark(&self) -> StatementMark {
        StatementMark(self.tx.as_ref().map(|t| t.ops.len()).unwrap_or(0))
    }

    /// The ops recorded since `mark`.
    pub fn ops_since(&self, mark: StatementMark) -> &[Op] {
        match &self.tx {
            Some(tx) => &tx.ops[mark.0.min(tx.ops.len())..],
            None => &[],
        }
    }

    /// The normalized delta of the ops since `mark`.
    pub fn delta_since(&self, mark: StatementMark) -> Delta {
        let ops = self.ops_since(mark);
        Delta::from_ops(
            ops,
            |id| self.state.nodes.get(&id).map(|r| (**r).clone()),
            |id| self.state.rels.get(&id).map(|r| (**r).clone()),
        )
    }

    // ------------------------------------------------------------------
    // Commit-epoch publication (single writer, N snapshot readers)
    // ------------------------------------------------------------------

    /// Mutable access to the storage state, copy-on-writing whatever is
    /// still shared with published snapshots. Every mutation and DDL path
    /// funnels through here so the dirty flag can never be missed.
    fn state_mut(&mut self) -> &mut StoreState {
        self.dirty = true;
        Arc::make_mut(&mut self.state)
    }

    /// Roll the epoch forward over unpublished changes and refresh the
    /// publisher slot. Called at every commit boundary: `begin`, `commit`,
    /// `rollback`, and out-of-transaction snapshot requests.
    fn maybe_publish(&mut self) {
        if self.dirty {
            self.epoch += 1;
            self.dirty = false;
        }
        // Nothing changed since the slot last saw this epoch: skip the
        // lock. This keeps clean `begin`s free under publication.
        if self.epoch == self.last_published {
            return;
        }
        if let Some(p) = &self.publisher {
            // `self.publisher` is the only strong count when no reader
            // handle is live: skip the slot store, leaving
            // `last_published` behind so the next boundary that *does*
            // see a handle catches up. The saving is not the store
            // itself but everything downstream of it — with no current
            // roots parked in the slot the writer stays sole owner of
            // its treap nodes, and the next transaction mutates in
            // place instead of path-copying a spine per touched key.
            if Arc::strong_count(p) == 1 {
                return;
            }
            p.publish(self.epoch, &self.state);
            self.last_published = self.epoch;
        }
    }

    /// The last committed (published) epoch. Epoch 0 is the initial empty
    /// state; every commit boundary that changed anything advances it by 1.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Strong count on the live state root — observability for epoch
    /// reclamation tests. 1 means exclusive (no publisher, no snapshots of
    /// the current version); with a publisher whose slot is current the
    /// baseline is 2 (graph + slot), plus 1 per snapshot still pinning
    /// this exact version. While publication has lapsed (no live reader
    /// handles, so commit boundaries skip the slot) the count drops back
    /// to 1: the slot keeps holding the last version it saw, not the
    /// live root.
    pub fn state_refcount(&self) -> usize {
        Arc::strong_count(&self.state)
    }

    /// A cloneable, `Send + Sync` handle that reader threads use to pin
    /// fresh snapshots without going through the writer.
    ///
    /// The first call must happen **outside** a transaction (the committed
    /// state becomes the handle's initial publication); it switches the
    /// graph from exclusive mode to copy-on-write publication. Subsequent
    /// calls are cheap and valid at any time.
    pub fn reader_handle(&mut self) -> GraphHandle {
        match &self.publisher {
            None => {
                assert!(
                    !self.in_tx(),
                    "the first reader handle must be created outside a transaction"
                );
                if self.dirty {
                    self.epoch += 1;
                    self.dirty = false;
                }
                let p = Arc::new(Publisher::new(self.epoch, Arc::clone(&self.state)));
                self.publisher = Some(Arc::clone(&p));
                self.last_published = self.epoch;
                GraphHandle::new(p)
            }
            Some(p) => {
                // Clone the publisher *before* publishing so the
                // strong count reflects this handle and the lapsed-
                // publication skip in `maybe_publish` cannot fire.
                let handle = GraphHandle::new(Arc::clone(p));
                if !self.in_tx() {
                    self.maybe_publish();
                } else if self.last_published != self.epoch {
                    // Publication lapsed (every handle was dropped, so
                    // recent boundaries skipped the slot) and we are
                    // mid-transaction. The boundary state is still
                    // recoverable as long as the transaction has not
                    // mutated anything: the writer's state *is* the
                    // boundary state, so store it. Once the transaction
                    // dirtied the state the boundary version has been
                    // overwritten in place (the writer was sole owner)
                    // and no snapshot can be served — fail loudly
                    // rather than expose in-flight mutations.
                    assert!(
                        !self.dirty,
                        "cannot mint a reader handle mid-transaction after \
                         publication lapsed: create a handle before the \
                         transaction mutates anything"
                    );
                    p.publish(self.epoch, &self.state);
                    self.last_published = self.epoch;
                }
                handle
            }
        }
    }

    /// Pin an immutable, `Send + Sync` snapshot of the last committed
    /// epoch. Mid-transaction this exposes the state as of the previous
    /// commit boundary — never in-flight mutations or partially applied
    /// trigger cascades.
    pub fn snapshot(&mut self) -> Snapshot {
        self.reader_handle().snapshot()
    }

    // ------------------------------------------------------------------
    // Write policy
    // ------------------------------------------------------------------

    /// Replace the write policy, returning the previous one.
    pub fn set_write_policy(&mut self, policy: WritePolicy) -> WritePolicy {
        std::mem::replace(&mut self.policy, policy)
    }

    fn check_write(&self, op: &'static str, item: Option<ItemRef>) -> Result<()> {
        match &self.policy {
            WritePolicy::Unrestricted => Ok(()),
            WritePolicy::ReadOnly => Err(GraphError::WritePolicy { op, item }),
            WritePolicy::ConditionNewOnly(allowed) => match item {
                Some(i) if allowed.contains(&i) && (op.contains("prop")) => Ok(()),
                _ => Err(GraphError::WritePolicy { op, item }),
            },
        }
    }

    fn log(&mut self, op: Op) {
        if let Some(tx) = &mut self.tx {
            tx.ops.push(op);
        }
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Create a node with the given labels and properties.
    pub fn create_node<L, S>(&mut self, labels: L, props: PropertyMap) -> Result<NodeId>
    where
        L: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.check_write("create node", None)?;
        for (k, v) in props.iter() {
            if !v.is_storable() {
                return Err(GraphError::NotStorable {
                    key: k.clone(),
                    type_name: v.type_name(),
                });
            }
        }
        let id = NodeId(self.next_node);
        self.next_node += 1;
        let record = NodeRecord {
            id,
            labels: labels.into_iter().map(Into::into).collect(),
            props,
        };
        self.state_mut().raw_insert_node(record.clone());
        self.log(Op::CreateNode { record });
        Ok(id)
    }

    /// Delete a node. Fails with [`GraphError::HasRelationships`] when
    /// relationships remain; use [`Graph::detach_delete_node`] for Cypher's
    /// `DETACH DELETE`.
    pub fn delete_node(&mut self, id: NodeId) -> Result<()> {
        self.check_write("delete node", Some(id.into()))?;
        let rec = self
            .state
            .nodes
            .get(&id)
            .ok_or(GraphError::NodeNotFound(id))?
            .as_ref()
            .clone();
        if self.state.out_adj.contains_key(&id) || self.state.in_adj.contains_key(&id) {
            return Err(GraphError::HasRelationships(id));
        }
        self.state_mut().raw_remove_node(id);
        self.log(Op::DeleteNode { record: rec });
        Ok(())
    }

    /// Delete a node together with all its relationships.
    pub fn detach_delete_node(&mut self, id: NodeId) -> Result<()> {
        self.check_write("delete node", Some(id.into()))?;
        if !self.state.nodes.contains_key(&id) {
            return Err(GraphError::NodeNotFound(id));
        }
        let mut attached: Vec<RelId> = [&self.state.out_adj, &self.state.in_adj]
            .into_iter()
            .filter_map(|adj| adj.get(&id))
            .flat_map(|list| list.all().iter().map(|&(rid, _)| rid))
            .collect();
        attached.sort();
        attached.dedup();
        for rid in attached {
            self.delete_rel(rid)?;
        }
        self.delete_node(id)
    }

    /// Create a relationship.
    pub fn create_rel(
        &mut self,
        src: NodeId,
        dst: NodeId,
        rel_type: impl Into<String>,
        props: PropertyMap,
    ) -> Result<RelId> {
        self.check_write("create relationship", None)?;
        if !self.state.nodes.contains_key(&src) {
            return Err(GraphError::NodeNotFound(src));
        }
        if !self.state.nodes.contains_key(&dst) {
            return Err(GraphError::NodeNotFound(dst));
        }
        for (k, v) in props.iter() {
            if !v.is_storable() {
                return Err(GraphError::NotStorable {
                    key: k.clone(),
                    type_name: v.type_name(),
                });
            }
        }
        let id = RelId(self.next_rel);
        self.next_rel += 1;
        let record = RelRecord {
            id,
            rel_type: rel_type.into(),
            src,
            dst,
            props,
        };
        self.state_mut().raw_insert_rel(record.clone());
        self.log(Op::CreateRel { record });
        Ok(id)
    }

    /// Delete a relationship.
    pub fn delete_rel(&mut self, id: RelId) -> Result<()> {
        self.check_write("delete relationship", Some(id.into()))?;
        let rec = self
            .state
            .rels
            .get(&id)
            .ok_or(GraphError::RelNotFound(id))?
            .as_ref()
            .clone();
        self.state_mut().raw_remove_rel(id);
        self.log(Op::DeleteRel { record: rec });
        Ok(())
    }

    /// Add a label to a node; returns `false` (and records nothing) when the
    /// label was already present.
    pub fn set_label(&mut self, node: NodeId, label: impl Into<String>) -> Result<bool> {
        let label = label.into();
        self.check_write("set label", Some(node.into()))?;
        let present = self
            .state
            .nodes
            .get(&node)
            .ok_or(GraphError::NodeNotFound(node))?
            .labels
            .contains(&label);
        if present {
            return Ok(false);
        }
        let st = self.state_mut();
        let rec = Arc::make_mut(st.nodes.get_mut(&node).expect("existence checked above"));
        rec.labels.insert(label.clone());
        st.node_index
            .index_item(once(label.as_str()), &rec.props, node, None);
        extent_insert(&mut st.label_index, &label, node);
        st.degree_note_label(node, &label, 1);
        self.log(Op::SetLabel { node, label });
        Ok(true)
    }

    /// Remove a label from a node; `false` when it was absent.
    pub fn remove_label(&mut self, node: NodeId, label: &str) -> Result<bool> {
        self.check_write("remove label", Some(node.into()))?;
        let present = self
            .state
            .nodes
            .get(&node)
            .ok_or(GraphError::NodeNotFound(node))?
            .labels
            .contains(label);
        if !present {
            return Ok(false);
        }
        let st = self.state_mut();
        let rec = Arc::make_mut(st.nodes.get_mut(&node).expect("existence checked above"));
        rec.labels.remove(label);
        st.node_index
            .deindex_item(once(label), &rec.props, node, None);
        if let Some(ix) = st.label_index.get_mut(label) {
            ix.remove(&node);
        }
        st.degree_note_label(node, label, -1);
        self.log(Op::RemoveLabel {
            node,
            label: label.to_string(),
        });
        Ok(true)
    }

    /// Assign a node property. Assigning `NULL` removes the property, per
    /// Cypher `SET` semantics.
    pub fn set_node_prop(
        &mut self,
        node: NodeId,
        key: impl Into<String>,
        value: Value,
    ) -> Result<()> {
        let key = key.into();
        self.check_write("set node prop", Some(node.into()))?;
        if !value.is_storable() {
            return Err(GraphError::NotStorable {
                key,
                type_name: value.type_name(),
            });
        }
        if !self.state.nodes.contains_key(&node) {
            return Err(GraphError::NodeNotFound(node));
        }
        if value.is_null() {
            if let Some(old) = self.state_mut().put_node_prop(node, &key, None) {
                self.log(Op::RemoveNodeProp { node, key, old });
            }
            return Ok(());
        }
        let old = self
            .state_mut()
            .put_node_prop(node, &key, Some(value.clone()));
        self.log(Op::SetNodeProp {
            node,
            key,
            old,
            new: value,
        });
        Ok(())
    }

    /// Remove a node property, returning its old value (if any).
    pub fn remove_node_prop(&mut self, node: NodeId, key: &str) -> Result<Option<Value>> {
        self.check_write("remove node prop", Some(node.into()))?;
        if !self.state.nodes.contains_key(&node) {
            return Err(GraphError::NodeNotFound(node));
        }
        let old = self.state_mut().put_node_prop(node, key, None);
        if let Some(old_v) = &old {
            self.log(Op::RemoveNodeProp {
                node,
                key: key.to_string(),
                old: old_v.clone(),
            });
        }
        Ok(old)
    }

    /// Assign a relationship property (`NULL` removes).
    pub fn set_rel_prop(&mut self, rel: RelId, key: impl Into<String>, value: Value) -> Result<()> {
        let key = key.into();
        self.check_write("set rel prop", Some(rel.into()))?;
        if !value.is_storable() {
            return Err(GraphError::NotStorable {
                key,
                type_name: value.type_name(),
            });
        }
        if !self.state.rels.contains_key(&rel) {
            return Err(GraphError::RelNotFound(rel));
        }
        if value.is_null() {
            if let Some(old) = self.state_mut().put_rel_prop(rel, &key, None) {
                self.log(Op::RemoveRelProp { rel, key, old });
            }
            return Ok(());
        }
        let old = self
            .state_mut()
            .put_rel_prop(rel, &key, Some(value.clone()));
        self.log(Op::SetRelProp {
            rel,
            key,
            old,
            new: value,
        });
        Ok(())
    }

    /// Remove a relationship property.
    pub fn remove_rel_prop(&mut self, rel: RelId, key: &str) -> Result<Option<Value>> {
        self.check_write("remove rel prop", Some(rel.into()))?;
        if !self.state.rels.contains_key(&rel) {
            return Err(GraphError::RelNotFound(rel));
        }
        let old = self.state_mut().put_rel_prop(rel, key, None);
        if let Some(old_v) = &old {
            self.log(Op::RemoveRelProp {
                rel,
                key: key.to_string(),
                old: old_v.clone(),
            });
        }
        Ok(old)
    }

    // ------------------------------------------------------------------
    // Direct reads (record access)
    // ------------------------------------------------------------------

    pub fn node_count(&self) -> usize {
        self.state.nodes.len()
    }

    pub fn rel_count(&self) -> usize {
        self.state.rels.len()
    }

    /// All labels currently present (with non-empty extents).
    pub fn labels(&self) -> Vec<String> {
        let mut ls: Vec<String> = self
            .state
            .label_index
            .iter()
            .filter(|(_, ix)| !ix.is_empty())
            .map(|(l, _)| l.to_string())
            .collect();
        ls.sort();
        ls
    }

    /// All relationship types currently present.
    pub fn rel_types(&self) -> Vec<String> {
        let mut ts: Vec<String> = self
            .state
            .type_index
            .iter()
            .filter(|(_, ix)| !ix.is_empty())
            .map(|(t, _)| t.to_string())
            .collect();
        ts.sort();
        ts
    }

    // ------------------------------------------------------------------
    // Property indexes (DDL)
    // ------------------------------------------------------------------

    /// Create the property index `def` and populate it from the current
    /// extent. Returns `false` when it already exists or the column list
    /// is malformed (empty, or repeats a column).
    ///
    /// Index DDL is not transactional: the definition survives rollback
    /// (its *entries* are kept consistent by the undo paths).
    pub fn define_index(&mut self, def: &IndexDef) -> bool {
        if self.is_indexed(def) {
            return false;
        }
        let st = self.state_mut();
        let columns = &def.columns;
        match &def.on {
            IndexOn::Label(l) => {
                let extent = st.label_index.get(l.as_str());
                populate(&mut st.node_index, l, columns, extent, |id| {
                    st.nodes.get(id).map(|rec| &rec.props)
                })
            }
            IndexOn::RelType(t) => {
                let extent = st.type_index.get(t.as_str());
                populate(&mut st.rel_index, t, columns, extent, |id| {
                    st.rels.get(id).map(|rec| &rec.props)
                })
            }
        }
    }

    /// Drop the index `def`; `false` when absent.
    pub fn drop_index(&mut self, def: &IndexDef) -> bool {
        if !self.is_indexed(def) {
            return false;
        }
        let st = self.state_mut();
        match &def.on {
            IndexOn::Label(l) => st.node_index.drop_index(l, &def.columns),
            IndexOn::RelType(t) => st.rel_index.drop_index(t, &def.columns),
        }
    }

    /// Every index definition, sorted (nodes first).
    pub fn indexes(&self) -> Vec<IndexDef> {
        let node = self.state.node_index.definitions().into_iter();
        let rel = self.state.rel_index.definitions().into_iter();
        node.map(|(l, columns)| (IndexOn::Label(l), columns))
            .chain(rel.map(|(t, columns)| (IndexOn::RelType(t), columns)))
            .map(|(on, columns)| IndexDef { on, columns })
            .collect()
    }

    fn is_indexed(&self, def: &IndexDef) -> bool {
        match &def.on {
            IndexOn::Label(l) => self.state.node_index.is_indexed(l, &def.columns),
            IndexOn::RelType(t) => self.state.rel_index.is_indexed(t, &def.columns),
        }
    }

    /// [`Graph::define_index`] of the single-key node index `(label, [key])`.
    pub fn create_index(&mut self, label: &str, key: &str) -> bool {
        self.define_index(&IndexDef::node(label, &[key]))
    }

    /// [`Graph::define_index`] of the node index `(label, columns)`.
    pub fn create_composite_index(&mut self, label: &str, columns: &[String]) -> bool {
        self.define_index(&IndexDef::node(label, columns))
    }

    /// Rebuild every index histogram from the live key space (drift → 0).
    ///
    /// Incremental maintenance keeps totals exact but lets the equi-depth
    /// property erode within the documented `2·depth + drift` bound; bulk
    /// loads (which bypass the amortized rebuild cadence badly) should
    /// call this once after loading so planning estimates start from a
    /// fresh, zero-drift histogram. Degree statistics are exact edge
    /// counts at every step and have nothing to rebuild.
    pub fn rebuild_stats(&mut self) {
        let st = self.state_mut();
        st.node_index.rebuild_stats();
        st.rel_index.rebuild_stats();
    }

    // ------------------------------------------------------------------
    // Recovery and bulk load (the WAL layer's write-side surface)
    // ------------------------------------------------------------------

    /// Re-apply a committed op sequence verbatim (WAL replay).
    ///
    /// Forward application reuses the undo machinery: applying `op` is
    /// undoing `op.invert()`, so replay exercises exactly the same
    /// index-maintenance code as rollback — there is no second,
    /// subtly-different apply path to keep consistent. Ops are applied
    /// unlogged and outside any transaction (replay is not undoable), and
    /// the id-allocator watermarks advance past every id seen so
    /// post-recovery allocations never collide with replayed records.
    ///
    /// Callers replay *effects*: the ops were recorded post-cascade, so
    /// trigger dispatch must not be re-entered around this call.
    pub fn apply_committed_ops(&mut self, ops: &[Op]) -> Result<()> {
        if self.in_tx() {
            return Err(GraphError::TransactionActive);
        }
        let mut next_node = self.next_node;
        let mut next_rel = self.next_rel;
        for op in ops {
            if let Some(n) = op.node_id() {
                next_node = next_node.max(n.0 + 1);
            }
            if let Some(r) = op.rel_id() {
                next_rel = next_rel.max(r.0 + 1);
            }
        }
        let st = self.state_mut();
        for op in ops {
            st.undo_ops(std::slice::from_ref(&op.invert()));
        }
        self.next_node = next_node;
        self.next_rel = next_rel;
        Ok(())
    }

    /// Insert a node record verbatim (snapshot load). Indexes and degree
    /// statistics are maintained; the node-id watermark advances past the
    /// record's id. Unlogged, so only valid outside a transaction.
    pub fn load_node(&mut self, record: NodeRecord) -> Result<()> {
        if self.in_tx() {
            return Err(GraphError::TransactionActive);
        }
        self.next_node = self.next_node.max(record.id.0 + 1);
        self.state_mut().raw_insert_node(record);
        Ok(())
    }

    /// Insert a relationship record verbatim (snapshot load). Load nodes
    /// first: degree statistics attribute the edge to the endpoint labels
    /// visible at insert time.
    pub fn load_rel(&mut self, record: RelRecord) -> Result<()> {
        if self.in_tx() {
            return Err(GraphError::TransactionActive);
        }
        self.next_rel = self.next_rel.max(record.id.0 + 1);
        self.state_mut().raw_insert_rel(record);
        Ok(())
    }

    /// The id-allocator watermarks `(next_node, next_rel)`. Persisted in
    /// every WAL frame and snapshot: surviving records alone under-count
    /// (rolled-back and deleted work advances the allocators too), and
    /// recovering a lower watermark would re-issue ids.
    pub fn id_watermarks(&self) -> (u64, u64) {
        (self.next_node, self.next_rel)
    }

    /// Raise the id-allocator watermarks to at least `(next_node,
    /// next_rel)`. Lowering is impossible by design — max semantics — so
    /// replaying frames in any order converges on the highest watermark.
    pub fn set_id_floor(&mut self, next_node: u64, next_rel: u64) {
        self.next_node = self.next_node.max(next_node);
        self.next_rel = self.next_rel.max(next_rel);
    }

    /// All node records in id order (snapshot writing, state comparison).
    pub fn nodes(&self) -> impl Iterator<Item = &NodeRecord> {
        self.state.nodes.values().map(|rec| rec.as_ref())
    }

    /// All relationship records in id order.
    pub fn rels(&self) -> impl Iterator<Item = &RelRecord> {
        self.state.rels.values().map(|rec| rec.as_ref())
    }

    // ------------------------------------------------------------------
    // Typed index reads: thin fronts over [`GraphView::probe`] and
    // [`GraphView::index_stats`] for direct (non-query) callers. `None` =
    // not indexed or refused, exactly as the probe answers.
    // ------------------------------------------------------------------

    /// Probe the single-key index `(scope, [key])`.
    fn probe_key(
        &self,
        scope: IndexScope<'_>,
        key: &str,
        eq: &[Value],
        trailing: CompositeTrailing<'_>,
        mode: ProbeMode,
    ) -> Option<Probed> {
        let probe = IndexProbe {
            columns: &[key.to_string()],
            eq,
            trailing,
        };
        self.probe(scope, probe, mode)
    }

    /// Nodes with `label` whose property `key` equals `value`.
    pub fn nodes_with_prop(&self, label: &str, key: &str, value: &Value) -> Option<Vec<NodeId>> {
        let (scope, eq) = (IndexScope::Label(label), std::slice::from_ref(value));
        let hits = self.probe_key(scope, key, eq, CompositeTrailing::None, ProbeMode::Ids)?;
        Some(hits.into_ids())
    }

    /// Nodes with `label` whose property `key` lies within the bounds
    /// ([`Value::cmp3`] semantics).
    pub fn nodes_in_prop_range(
        &self,
        label: &str,
        key: &str,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Option<Vec<NodeId>> {
        let range = CompositeTrailing::Range(lower, upper);
        let hits = self.probe_key(IndexScope::Label(label), key, &[], range, ProbeMode::Ids)?;
        Some(hits.into_ids())
    }

    /// Nodes with `label` whose string property `key` starts with `prefix`.
    pub fn nodes_with_prop_prefix(
        &self,
        label: &str,
        key: &str,
        prefix: &str,
    ) -> Option<Vec<NodeId>> {
        let prefix = CompositeTrailing::Prefix(prefix);
        let hits = self.probe_key(IndexScope::Label(label), key, &[], prefix, ProbeMode::Ids)?;
        Some(hits.into_ids())
    }

    /// Relationships of `rel_type` whose property `key` equals `value`.
    pub fn rels_with_prop(&self, rel_type: &str, key: &str, value: &Value) -> Option<Vec<RelId>> {
        let (scope, eq) = (IndexScope::RelType(rel_type), std::slice::from_ref(value));
        let hits = self.probe_key(scope, key, eq, CompositeTrailing::None, ProbeMode::Ids)?;
        Some(hits.into_ids())
    }

    /// Relationships of `rel_type` whose property `key` lies within the
    /// bounds.
    pub fn rels_in_prop_range(
        &self,
        rel_type: &str,
        key: &str,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Option<Vec<RelId>> {
        let (scope, range) = (
            IndexScope::RelType(rel_type),
            CompositeTrailing::Range(lower, upper),
        );
        Some(
            self.probe_key(scope, key, &[], range, ProbeMode::Ids)?
                .into_ids(),
        )
    }

    /// Exact count of [`Graph::nodes_with_prop`] results.
    pub fn count_nodes_with_prop(&self, label: &str, key: &str, value: &Value) -> Option<usize> {
        let (scope, eq) = (IndexScope::Label(label), std::slice::from_ref(value));
        let hits = self.probe_key(scope, key, eq, CompositeTrailing::None, ProbeMode::Count)?;
        Some(hits.count())
    }

    /// Count **estimate** of [`Graph::nodes_in_prop_range`] results
    /// (histogram-served once built; planning only).
    pub fn count_nodes_in_prop_range(
        &self,
        label: &str,
        key: &str,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Option<usize> {
        let range = CompositeTrailing::Range(lower, upper);
        let hits = self.probe_key(IndexScope::Label(label), key, &[], range, ProbeMode::Count)?;
        Some(hits.count())
    }

    /// Nodes a probe of the `(label, columns)` index matches: equality on
    /// the leading columns plus at most one trailing bound.
    pub fn nodes_with_composite(
        &self,
        label: &str,
        columns: &[String],
        eq: &[Value],
        trailing: CompositeTrailing<'_>,
    ) -> Option<Vec<NodeId>> {
        let probe = IndexProbe {
            columns,
            eq,
            trailing,
        };
        let hits = self.probe(IndexScope::Label(label), probe, ProbeMode::Ids)?;
        Some(hits.into_ids())
    }

    /// Count of [`Graph::nodes_with_composite`] results.
    pub fn count_nodes_with_composite(
        &self,
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
        let hits = self.probe(IndexScope::Label(label), probe, ProbeMode::Count)?;
        Some(hits.count())
    }

    /// `(nodes carrying the key, distinct values)` of the `(label, key)`
    /// index.
    pub fn node_prop_stats(&self, label: &str, key: &str) -> Option<(usize, usize)> {
        let st = self.index_stats(IndexScope::Label(label), &[key.into()])?;
        Some((st.keyed_total, st.keyed_distinct))
    }

    /// `(indexed records, distinct key vectors)` of the `(label, columns)`
    /// index — absent properties key on the missing marker, so the total
    /// covers the whole extent.
    pub fn node_composite_stats(&self, label: &str, columns: &[String]) -> Option<(usize, usize)> {
        let st = self.index_stats(IndexScope::Label(label), columns)?;
        Some((st.total, st.distinct))
    }

    // ------------------------------------------------------------------
    // Probe observability (debug counters)
    // ------------------------------------------------------------------

    /// Snapshot of the index-probe counters since the last reset.
    pub fn index_probes(&self) -> IndexProbes {
        self.probes.snapshot()
    }

    /// Reset the index-probe counters to zero.
    pub fn reset_index_probes(&self) {
        self.probes.reset()
    }
}

/// Declare `(name, columns)` on one scope's index and fill it from that
/// scope's `extent`; `false` when the index refuses the definition.
fn populate<'p, Id: Ord + Copy>(
    index: &mut CompositeIndex<Id>,
    name: &str,
    columns: &[String],
    extent: Option<&TailSet<Id>>,
    props: impl Fn(&Id) -> Option<&'p PropertyMap>,
) -> bool {
    if !index.create(name, columns) {
        return false;
    }
    for id in extent.into_iter().flat_map(|x| x.iter()) {
        if let Some(props) = props(id) {
            index.insert_into(name, columns, props, *id);
        }
    }
    true
}

/// Answer a probe from one scope's index in the shape `mode` asks for.
fn run_probe<Id: Ord + Copy + Into<u64>>(
    index: &CompositeIndex<Id>,
    label: &str,
    probe: IndexProbe<'_>,
    mode: ProbeMode,
) -> Option<Probed> {
    Some(match mode {
        ProbeMode::Count => Probed::Count(index.count(label, probe)?),
        ProbeMode::Ids => Probed::Ids(
            index
                .lookup(label, probe)?
                .into_iter()
                .map(Into::into)
                .collect(),
        ),
    })
}

/// Add `hop` of type `ty` to `node`'s list in `adj`, creating the list on
/// the node's first relationship in that direction.
fn adjacency_push(
    adj: &mut IdMap<NodeId, Adjacency>,
    node: NodeId,
    ty: &str,
    hop: Hop,
    key: impl FnOnce() -> Arc<str>,
) {
    match adj.get_mut(&node) {
        Some(list) => list.push(ty, hop, key),
        None => {
            adj.insert(node, Adjacency::new(key(), hop));
        }
    }
}

/// Remove relationship `rid` of type `ty` from `node`'s list in `adj`,
/// dropping the list when it empties: a missing list reads as empty.
fn adjacency_remove(adj: &mut IdMap<NodeId, Adjacency>, node: NodeId, ty: &str, rid: RelId) {
    if adj.get_mut(&node).is_some_and(|list| list.remove(ty, rid)) {
        adj.remove(&node);
    }
}

/// Implements [`GraphView`] for a store-backed type carrying a `state`
/// field (a [`StoreState`], possibly behind `Arc`) and a `probes` field
/// ([`ProbeCounters`], possibly behind `Arc`). The live [`Graph`] and the
/// pinned [`Snapshot`] serve reads identically — same access paths, same
/// refusal semantics — each against its own probe counters.
macro_rules! impl_graph_view_via_state {
    ($ty:ty) => {
        impl GraphView for $ty {
            fn node(&self, id: NodeId) -> Option<&NodeRecord> {
                self.state.nodes.get(&id).map(|r| &**r)
            }

            fn rel(&self, id: RelId) -> Option<&RelRecord> {
                self.state.rels.get(&id).map(|r| &**r)
            }

            fn nodes_with_label(&self, label: &str) -> Vec<NodeId> {
                self.state
                    .label_index
                    .get(label)
                    .map(|ix| ix.iter().copied().collect())
                    .unwrap_or_default()
            }

            fn all_node_ids(&self) -> Vec<NodeId> {
                self.state.nodes.keys().collect()
            }

            fn all_rel_ids(&self) -> Vec<RelId> {
                self.state.rels.keys().collect()
            }

            fn hops(&self, node: NodeId, dir: Direction, rel_type: Option<&str>) -> Cow<'_, [Hop]> {
                let adj = match dir {
                    Direction::Out => &self.state.out_adj,
                    Direction::In => &self.state.in_adj,
                    Direction::Both => panic!("`hops` reads one direction"),
                };
                Cow::Borrowed(adj.get(&node).map_or(&[], |list| match rel_type {
                    Some(ty) => list.run(ty),
                    None => list.all(),
                }))
            }

            fn index_defs(&self, scope: IndexScope<'_>) -> Vec<Arc<[String]>> {
                match scope {
                    IndexScope::Label(l) => self.state.node_index.defs_for_label(l),
                    IndexScope::RelType(t) => self.state.rel_index.defs_for_label(t),
                }
            }

            fn probe(
                &self,
                scope: IndexScope<'_>,
                probe: IndexProbe<'_>,
                mode: ProbeMode,
            ) -> Option<Probed> {
                self.probes.note_probe(probe.columns.len(), mode);
                match scope {
                    IndexScope::Label(l) => run_probe(&self.state.node_index, l, probe, mode),
                    IndexScope::RelType(t) => run_probe(&self.state.rel_index, t, probe, mode),
                }
            }

            fn ordered_walk(
                &self,
                scope: IndexScope<'_>,
                columns: &[String],
                pins: &[Value],
                descending: bool,
            ) -> Option<Box<dyn Iterator<Item = u64> + '_>> {
                self.probes.ordered.fetch_add(1, AtomicOrdering::Relaxed);
                Some(match scope {
                    IndexScope::Label(l) => Box::new(
                        self.state
                            .node_index
                            .ordered_walk(l, columns, pins, descending)?
                            .map(u64::from),
                    ),
                    IndexScope::RelType(t) => Box::new(
                        self.state
                            .rel_index
                            .ordered_walk(t, columns, pins, descending)?
                            .map(u64::from),
                    ),
                })
            }

            fn index_stats(&self, scope: IndexScope<'_>, columns: &[String]) -> Option<IndexStats> {
                self.probes.counting.fetch_add(1, AtomicOrdering::Relaxed);
                match scope {
                    IndexScope::Label(l) => self.state.node_index.stats(l, columns),
                    IndexScope::RelType(t) => self.state.rel_index.stats(t, columns),
                }
            }

            fn rels_with_type(&self, rel_type: &str) -> Vec<RelId> {
                self.state
                    .type_index
                    .get(rel_type)
                    .map(|ix| ix.iter().copied().collect())
                    .unwrap_or_default()
            }

            fn label_cardinality(&self, label: &str) -> usize {
                self.state
                    .label_index
                    .get(label)
                    .map(|ix| ix.len())
                    .unwrap_or(0)
            }

            fn rel_type_cardinality(&self, rel_type: &str) -> usize {
                self.state
                    .type_index
                    .get(rel_type)
                    .map(|ix| ix.len())
                    .unwrap_or(0)
            }

            fn node_count_estimate(&self) -> usize {
                self.state.nodes.len()
            }

            fn rel_count_estimate(&self) -> usize {
                self.state.rels.len()
            }

            fn degree_edge_count(
                &self,
                label: &str,
                rel_type: &str,
                dir: Direction,
            ) -> Option<usize> {
                self.probes.counting.fetch_add(1, AtomicOrdering::Relaxed);
                // A missing entry means the combination never carried an
                // edge: the count is exactly zero (stats are maintained
                // from the first mutation on).
                let entry = self
                    .state
                    .degree_stats
                    .get(label)
                    .and_then(|m| m.get(rel_type));
                Some(match (entry, dir) {
                    (None, _) => 0,
                    (Some(e), Direction::Out) => e[DEG_OUT],
                    (Some(e), Direction::In) => e[DEG_IN],
                    (Some(e), Direction::Both) => e[DEG_OUT] + e[DEG_IN],
                })
            }
        }
    };
}

impl_graph_view_via_state!(Graph);
impl_graph_view_via_state!(Snapshot);

#[cfg(test)]
mod tests {
    use super::*;

    fn props(entries: &[(&str, Value)]) -> PropertyMap {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn create_and_read_node() {
        let mut g = Graph::new();
        let n = g
            .create_node(["Mutation"], props(&[("name", Value::str("D614G"))]))
            .unwrap();
        assert!(g.node(n).is_some());
        assert!(g.node(n).is_some_and(|n| n.has_label("Mutation")));
        assert_eq!(
            g.node(n).and_then(|n| n.props.get("name")).cloned(),
            Some(Value::str("D614G"))
        );
        assert_eq!(g.nodes_with_label("Mutation"), vec![n]);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn rels_and_adjacency() {
        let mut g = Graph::new();
        let a = g.create_node(["A"], PropertyMap::new()).unwrap();
        let b = g.create_node(["B"], PropertyMap::new()).unwrap();
        let r = g.create_rel(a, b, "KNOWS", PropertyMap::new()).unwrap();
        assert_eq!(g.hops(a, Direction::Out, None), vec![(r, b)]);
        assert_eq!(g.hops(a, Direction::Out, Some("KNOWS")), vec![(r, b)]);
        assert_eq!(g.hops(a, Direction::Out, Some("LIKES")), vec![]);
        assert_eq!(g.hops(a, Direction::In, None), vec![]);
        assert_eq!(g.hops(b, Direction::In, None), vec![(r, a)]);
        assert_eq!(g.rel(r).map(|r| (r.src, r.dst)), Some((a, b)));
        assert_eq!(
            g.rel(r).map(|r| r.rel_type.clone()),
            Some("KNOWS".to_string())
        );
    }

    #[test]
    fn self_loop_is_on_both_lists_with_itself_as_other_end() {
        let mut g = Graph::new();
        let a = g.create_node(["A"], PropertyMap::new()).unwrap();
        let r = g.create_rel(a, a, "SELF", PropertyMap::new()).unwrap();
        assert_eq!(g.hops(a, Direction::Out, None), vec![(r, a)]);
        assert_eq!(g.hops(a, Direction::In, Some("SELF")), vec![(r, a)]);
    }

    #[test]
    fn delete_node_with_rels_requires_detach() {
        let mut g = Graph::new();
        let a = g.create_node(["A"], PropertyMap::new()).unwrap();
        let b = g.create_node(["B"], PropertyMap::new()).unwrap();
        g.create_rel(a, b, "R", PropertyMap::new()).unwrap();
        assert_eq!(g.delete_node(a), Err(GraphError::HasRelationships(a)));
        g.detach_delete_node(a).unwrap();
        assert!(g.node(a).is_none());
        assert_eq!(g.rel_count(), 0);
    }

    #[test]
    fn rel_to_missing_node_fails() {
        let mut g = Graph::new();
        let a = g.create_node(["A"], PropertyMap::new()).unwrap();
        let err = g.create_rel(a, NodeId(99), "R", PropertyMap::new());
        assert_eq!(err, Err(GraphError::NodeNotFound(NodeId(99))));
    }

    #[test]
    fn label_index_tracks_set_and_remove() {
        let mut g = Graph::new();
        let n = g
            .create_node(Vec::<String>::new(), PropertyMap::new())
            .unwrap();
        assert!(g.set_label(n, "X").unwrap());
        assert!(!g.set_label(n, "X").unwrap()); // idempotent
        assert_eq!(g.nodes_with_label("X"), vec![n]);
        assert!(g.remove_label(n, "X").unwrap());
        assert!(!g.remove_label(n, "X").unwrap());
        assert!(g.nodes_with_label("X").is_empty());
    }

    #[test]
    fn setting_null_prop_removes() {
        let mut g = Graph::new();
        let n = g
            .create_node(["A"], props(&[("x", Value::Int(1))]))
            .unwrap();
        g.set_node_prop(n, "x", Value::Null).unwrap();
        assert_eq!(g.node(n).and_then(|n| n.props.get("x")).cloned(), None);
    }

    #[test]
    fn node_ref_not_storable() {
        let mut g = Graph::new();
        let n = g.create_node(["A"], PropertyMap::new()).unwrap();
        let err = g.set_node_prop(n, "bad", Value::Node(n));
        assert!(matches!(err, Err(GraphError::NotStorable { .. })));
    }

    #[test]
    fn tx_commit_returns_ops_and_delta() {
        let mut g = Graph::new();
        g.begin().unwrap();
        let mark = g.mark();
        let n = g
            .create_node(["A"], props(&[("x", Value::Int(1))]))
            .unwrap();
        g.set_node_prop(n, "x", Value::Int(2)).unwrap();
        let d = g.delta_since(mark);
        assert_eq!(d.created_nodes.len(), 1);
        // prop change folded into creation
        assert!(d.assigned_node_props.is_empty());
        assert_eq!(d.created_nodes[0].props.get("x"), Some(&Value::Int(2)));
        let ops = g.commit().unwrap();
        assert_eq!(ops.len(), 2);
        assert!(!g.in_tx());
    }

    #[test]
    fn rollback_restores_everything() {
        let mut g = Graph::new();
        let keep = g
            .create_node(["Keep"], props(&[("x", Value::Int(1))]))
            .unwrap();
        g.begin().unwrap();
        let n = g.create_node(["A"], PropertyMap::new()).unwrap();
        let r = g.create_rel(keep, n, "R", PropertyMap::new()).unwrap();
        g.set_node_prop(keep, "x", Value::Int(99)).unwrap();
        g.set_label(keep, "Extra").unwrap();
        g.remove_node_prop(keep, "x").unwrap();
        g.rollback().unwrap();
        assert!(g.node(n).is_none());
        assert!(g.rel(r).is_none());
        assert_eq!(
            g.node(keep).and_then(|n| n.props.get("x")).cloned(),
            Some(Value::Int(1))
        );
        assert!(!g.node(keep).is_some_and(|n| n.has_label("Extra")));
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.rel_count(), 0);
        assert!(g.nodes_with_label("A").is_empty());
    }

    #[test]
    fn transact_commits_on_ok_and_rolls_back_on_err() {
        let mut g = Graph::new();
        let kept = g
            .transact(|g| g.create_node(["A"], PropertyMap::new()))
            .unwrap();
        let failed: Result<()> = g.transact(|g| {
            g.create_node(["B"], PropertyMap::new())?;
            Err(GraphError::NoActiveTransaction)
        });
        assert_eq!(failed, Err(GraphError::NoActiveTransaction));
        assert!(!g.in_tx());
        assert!(g.node(kept).is_some());
        assert!(g.nodes_with_label("B").is_empty());
        // a transaction already open is not the body's to end
        g.begin().unwrap();
        let nested: Result<()> = g.transact(|_| Ok(()));
        assert_eq!(nested, Err(GraphError::TransactionActive));
        assert!(g.in_tx());
    }

    #[test]
    fn rollback_restores_deleted_subgraph() {
        let mut g = Graph::new();
        let a = g
            .create_node(["A"], props(&[("k", Value::Int(5))]))
            .unwrap();
        let b = g.create_node(["B"], PropertyMap::new()).unwrap();
        let r = g
            .create_rel(a, b, "R", props(&[("w", Value::Int(3))]))
            .unwrap();
        g.begin().unwrap();
        g.detach_delete_node(a).unwrap();
        assert!(g.node(a).is_none());
        g.rollback().unwrap();
        assert!(g.node(a).is_some());
        assert!(g.rel(r).is_some());
        assert_eq!(
            g.node(a).and_then(|n| n.props.get("k")).cloned(),
            Some(Value::Int(5))
        );
        assert_eq!(
            g.rel(r).and_then(|r| r.props.get("w")).cloned(),
            Some(Value::Int(3))
        );
        assert_eq!(g.hops(a, Direction::Out, None), vec![(r, b)]);
        assert_eq!(g.nodes_with_label("A"), vec![a]);
    }

    #[test]
    fn rollback_to_statement_mark_is_partial() {
        let mut g = Graph::new();
        g.begin().unwrap();
        let n1 = g.create_node(["A"], PropertyMap::new()).unwrap();
        let mark = g.mark();
        let n2 = g.create_node(["B"], PropertyMap::new()).unwrap();
        g.rollback_to(mark).unwrap();
        assert!(g.node(n1).is_some());
        assert!(g.node(n2).is_none());
        // tx still active; committing keeps n1
        g.commit().unwrap();
        assert!(g.node(n1).is_some());
    }

    #[test]
    fn double_begin_and_stray_commit_fail() {
        let mut g = Graph::new();
        assert_eq!(g.commit().err(), Some(GraphError::NoActiveTransaction));
        assert_eq!(g.rollback().err(), Some(GraphError::NoActiveTransaction));
        g.begin().unwrap();
        assert_eq!(g.begin().err(), Some(GraphError::TransactionActive));
        g.commit().unwrap();
    }

    #[test]
    fn read_only_policy_blocks_everything() {
        let mut g = Graph::new();
        let n = g.create_node(["A"], PropertyMap::new()).unwrap();
        g.set_write_policy(WritePolicy::ReadOnly);
        assert!(matches!(
            g.create_node(["B"], PropertyMap::new()),
            Err(GraphError::WritePolicy { .. })
        ));
        assert!(matches!(
            g.set_node_prop(n, "x", Value::Int(1)),
            Err(GraphError::WritePolicy { .. })
        ));
        g.set_write_policy(WritePolicy::Unrestricted);
        assert!(g.set_node_prop(n, "x", Value::Int(1)).is_ok());
    }

    #[test]
    fn condition_new_only_policy_allows_props_on_new_items() {
        let mut g = Graph::new();
        let fresh = g.create_node(["A"], PropertyMap::new()).unwrap();
        let other = g.create_node(["B"], PropertyMap::new()).unwrap();
        let allowed: BTreeSet<ItemRef> = [ItemRef::Node(fresh)].into_iter().collect();
        g.set_write_policy(WritePolicy::ConditionNewOnly(allowed));
        assert!(g.set_node_prop(fresh, "x", Value::Int(1)).is_ok());
        assert!(matches!(
            g.set_node_prop(other, "x", Value::Int(1)),
            Err(GraphError::WritePolicy { .. })
        ));
        assert!(matches!(
            g.delete_node(fresh),
            Err(GraphError::WritePolicy { .. })
        ));
        assert!(matches!(
            g.create_node(["C"], PropertyMap::new()),
            Err(GraphError::WritePolicy { .. })
        ));
    }

    #[test]
    fn a_typed_request_lends_its_run_at_high_degree() {
        // Two interleaved types on a hub: each typed request returns its
        // own run in insertion order, the untyped one both runs in
        // first-seen type order, and every entry carries its other end.
        let mut g = Graph::new();
        let hub = g.create_node(["Hub"], PropertyMap::new()).unwrap();
        let (mut rs, mut ss) = (Vec::new(), Vec::new());
        for i in 0..500 {
            let other = g.create_node(["Leaf"], PropertyMap::new()).unwrap();
            let (ty, run) = if i % 3 == 0 {
                ("S", &mut ss)
            } else {
                ("R", &mut rs)
            };
            run.push((
                g.create_rel(hub, other, ty, PropertyMap::new()).unwrap(),
                other,
            ));
        }
        let self_loop = g.create_rel(hub, hub, "R", PropertyMap::new()).unwrap();
        rs.push((self_loop, hub));
        assert_eq!(g.hops(hub, Direction::Out, Some("R")), rs);
        assert_eq!(g.hops(hub, Direction::Out, Some("S")), ss);
        let both: Vec<Hop> = ss.iter().chain(&rs).copied().collect();
        assert_eq!(g.hops(hub, Direction::Out, None), both);
        assert_eq!(g.hops(hub, Direction::In, None), vec![(self_loop, hub)]);
        assert!(matches!(
            g.hops(hub, Direction::Out, Some("R")),
            Cow::Borrowed(_)
        ));
    }

    #[test]
    fn all_ids_stay_sorted_across_mutations() {
        let mut g = Graph::new();
        let a = g.create_node(["A"], PropertyMap::new()).unwrap();
        let b = g.create_node(["A"], PropertyMap::new()).unwrap();
        let c = g.create_node(["A"], PropertyMap::new()).unwrap();
        g.detach_delete_node(b).unwrap();
        assert_eq!(g.all_node_ids(), vec![a, c]);
        g.begin().unwrap();
        let d = g.create_node(["A"], PropertyMap::new()).unwrap();
        assert_eq!(g.all_node_ids(), vec![a, c, d]);
        g.rollback().unwrap();
        assert_eq!(g.all_node_ids(), vec![a, c]);
        let r1 = g.create_rel(a, c, "R", PropertyMap::new()).unwrap();
        let r2 = g.create_rel(c, a, "R", PropertyMap::new()).unwrap();
        g.delete_rel(r1).unwrap();
        assert_eq!(g.all_rel_ids(), vec![r2]);
    }

    #[test]
    fn prop_index_answers_and_tracks_mutations() {
        let mut g = Graph::new();
        let a = g
            .create_node(["P"], props(&[("ssn", Value::Int(1))]))
            .unwrap();
        assert!(g.create_index("P", "ssn"));
        assert!(!g.create_index("P", "ssn"));
        assert_eq!(g.indexes(), vec![IndexDef::node("P", &["ssn"])]);
        // populated from the existing extent
        assert_eq!(g.nodes_with_prop("P", "ssn", &Value::Int(1)), Some(vec![a]));
        // new nodes join the index
        let b = g
            .create_node(["P"], props(&[("ssn", Value::Int(2))]))
            .unwrap();
        assert_eq!(g.nodes_with_prop("P", "ssn", &Value::Int(2)), Some(vec![b]));
        // prop updates move entries
        g.set_node_prop(b, "ssn", Value::Int(3)).unwrap();
        assert_eq!(g.nodes_with_prop("P", "ssn", &Value::Int(2)), Some(vec![]));
        assert_eq!(g.nodes_with_prop("P", "ssn", &Value::Int(3)), Some(vec![b]));
        // NULL-assignment removes
        g.set_node_prop(b, "ssn", Value::Null).unwrap();
        assert_eq!(g.nodes_with_prop("P", "ssn", &Value::Int(3)), Some(vec![]));
        // label changes attach/detach entries
        let c = g
            .create_node(["Q"], props(&[("ssn", Value::Int(9))]))
            .unwrap();
        assert_eq!(g.nodes_with_prop("P", "ssn", &Value::Int(9)), Some(vec![]));
        g.set_label(c, "P").unwrap();
        assert_eq!(g.nodes_with_prop("P", "ssn", &Value::Int(9)), Some(vec![c]));
        g.remove_label(c, "P").unwrap();
        assert_eq!(g.nodes_with_prop("P", "ssn", &Value::Int(9)), Some(vec![]));
        // deletion removes
        g.detach_delete_node(a).unwrap();
        assert_eq!(g.nodes_with_prop("P", "ssn", &Value::Int(1)), Some(vec![]));
        // unindexed (label, key) cannot answer
        assert_eq!(g.nodes_with_prop("P", "name", &Value::Int(1)), None);
        assert!(g.drop_index(&IndexDef::node("P", &["ssn"])));
        assert_eq!(g.nodes_with_prop("P", "ssn", &Value::Int(3)), None);
    }

    #[test]
    fn boundary_numerics_fall_back_to_scan_instead_of_lying() {
        // Int(2^53 + 1) eq3-equals Float(2^53.0) under lossy conversion;
        // neither may be served from the index, or the index path would
        // drop rows the scan path returns.
        let bound = 1i64 << 53;
        let mut g = Graph::new();
        let n = g
            .create_node(["M"], props(&[("k", Value::Int(bound + 1))]))
            .unwrap();
        g.create_index("M", "k");
        assert_eq!(
            g.nodes_with_prop("M", "k", &Value::Float(bound as f64)),
            None
        );
        assert_eq!(g.nodes_with_prop("M", "k", &Value::Int(bound + 1)), None);
        // the fallback scan agrees with eq3
        let scan: Vec<NodeId> = g
            .all_node_ids()
            .into_iter()
            .filter(|&id| {
                g.node(id)
                    .and_then(|n| n.props.get("k"))
                    .cloned()
                    .is_some_and(|v| v.eq3(&Value::Float(bound as f64)) == Some(true))
            })
            .collect();
        assert_eq!(scan, vec![n]);
        // in-range values still get exact index answers
        let m = g
            .create_node(["M"], props(&[("k", Value::Int(bound - 1))]))
            .unwrap();
        assert_eq!(
            g.nodes_with_prop("M", "k", &Value::Float((bound - 1) as f64)),
            Some(vec![m])
        );
    }

    #[test]
    fn prop_index_survives_rollback_paths() {
        let mut g = Graph::new();
        let keep = g
            .create_node(["P"], props(&[("k", Value::Int(1))]))
            .unwrap();
        g.create_index("P", "k");
        g.begin().unwrap();
        let tmp = g
            .create_node(["P"], props(&[("k", Value::Int(2))]))
            .unwrap();
        g.set_node_prop(keep, "k", Value::Int(7)).unwrap();
        g.set_label(tmp, "Extra").unwrap();
        g.remove_node_prop(keep, "k").unwrap();
        let mark = g.mark();
        g.set_node_prop(tmp, "k", Value::Int(5)).unwrap();
        g.rollback_to(mark).unwrap();
        // mid-statement rollback restored tmp's k=2
        assert_eq!(g.nodes_with_prop("P", "k", &Value::Int(2)), Some(vec![tmp]));
        assert_eq!(g.nodes_with_prop("P", "k", &Value::Int(5)), Some(vec![]));
        g.rollback().unwrap();
        // full rollback: only the original entry remains
        assert_eq!(
            g.nodes_with_prop("P", "k", &Value::Int(1)),
            Some(vec![keep])
        );
        for v in [2, 5, 7] {
            assert_eq!(
                g.nodes_with_prop("P", "k", &Value::Int(v)),
                Some(vec![]),
                "k={v}"
            );
        }
    }

    fn cols(cs: &[&str]) -> Vec<String> {
        cs.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn composite_index_tracks_mutations() {
        use crate::composite::CompositeTrailing;
        let mut g = Graph::new();
        let c = cols(&["status", "severity"]);
        let a = g
            .create_node(
                ["P"],
                props(&[("status", Value::str("icu")), ("severity", Value::Int(9))]),
            )
            .unwrap();
        assert!(g.create_composite_index("P", &c));
        assert!(!g.create_composite_index("P", &c));
        assert_eq!(g.indexes(), vec![IndexDef::node("P", &c)]);
        // populated from the existing extent
        let probe = |g: &Graph, status: &str, sev: i64| {
            g.nodes_with_composite(
                "P",
                &c,
                &[Value::str(status), Value::Int(sev)],
                CompositeTrailing::None,
            )
        };
        assert_eq!(probe(&g, "icu", 9), Some(vec![a]));
        // new nodes join; prop updates move the whole key vector
        let b = g
            .create_node(
                ["P"],
                props(&[("status", Value::str("ward")), ("severity", Value::Int(3))]),
            )
            .unwrap();
        assert_eq!(probe(&g, "ward", 3), Some(vec![b]));
        g.set_node_prop(b, "status", Value::str("icu")).unwrap();
        assert_eq!(probe(&g, "ward", 3), Some(vec![]));
        assert_eq!(probe(&g, "icu", 3), Some(vec![b]));
        // NULL-assignment moves the entry onto the missing marker
        g.set_node_prop(b, "severity", Value::Null).unwrap();
        assert_eq!(probe(&g, "icu", 3), Some(vec![]));
        assert_eq!(
            g.nodes_with_composite("P", &c, &[Value::str("icu")], CompositeTrailing::None),
            Some(vec![a, b])
        );
        // label changes attach/detach entries
        g.remove_label(b, "P").unwrap();
        assert_eq!(
            g.nodes_with_composite("P", &c, &[Value::str("icu")], CompositeTrailing::None),
            Some(vec![a])
        );
        g.set_label(b, "P").unwrap();
        assert_eq!(
            g.nodes_with_composite("P", &c, &[Value::str("icu")], CompositeTrailing::None),
            Some(vec![a, b])
        );
        // deletion removes; drop stops answering
        g.detach_delete_node(a).unwrap();
        assert_eq!(probe(&g, "icu", 9), Some(vec![]));
        assert!(g.drop_index(&IndexDef::node("P", &c)));
        assert_eq!(probe(&g, "icu", 9), None);
    }

    #[test]
    fn composite_index_survives_rollback_paths() {
        use crate::composite::CompositeTrailing;
        let mut g = Graph::new();
        let c = cols(&["k", "m"]);
        let keep = g
            .create_node(["P"], props(&[("k", Value::Int(1)), ("m", Value::Int(2))]))
            .unwrap();
        g.create_composite_index("P", &c);
        let full = |g: &Graph, k: i64, m: i64| {
            g.nodes_with_composite(
                "P",
                &c,
                &[Value::Int(k), Value::Int(m)],
                CompositeTrailing::None,
            )
        };
        g.begin().unwrap();
        let tmp = g
            .create_node(["P"], props(&[("k", Value::Int(5)), ("m", Value::Int(6))]))
            .unwrap();
        g.set_node_prop(keep, "k", Value::Int(7)).unwrap();
        g.remove_node_prop(keep, "m").unwrap();
        g.set_label(tmp, "Extra").unwrap();
        let mark = g.mark();
        g.set_node_prop(tmp, "m", Value::Int(9)).unwrap();
        g.rollback_to(mark).unwrap();
        // mid-statement rollback restored tmp's (5, 6)
        assert_eq!(full(&g, 5, 6), Some(vec![tmp]));
        assert_eq!(full(&g, 5, 9), Some(vec![]));
        g.rollback().unwrap();
        // full rollback: only the original vector remains
        assert_eq!(full(&g, 1, 2), Some(vec![keep]));
        for (k, m) in [(5, 6), (7, 2), (5, 9)] {
            assert_eq!(full(&g, k, m), Some(vec![]), "({k}, {m})");
        }
        assert_eq!(g.node_composite_stats("P", &c), Some((1, 1)));
    }

    #[test]
    fn rebuild_stats_zeroes_drift_after_bulk_load() {
        use std::ops::Bound;
        let mut g = Graph::new();
        g.create_index("P", "k");
        g.create_composite_index("P", &cols(&["k", "m"]));
        // bulk load (no transaction): the incremental histogram drifts
        for i in 0..4000i64 {
            g.create_node(
                ["P"],
                props(&[("k", Value::Int(i)), ("m", Value::Int(i % 5))]),
            )
            .unwrap();
        }
        g.rebuild_stats();
        // a freshly rebuilt histogram answers within 2·depth (drift = 0)
        let est = g
            .count_nodes_in_prop_range(
                "P",
                "k",
                Bound::Included(&Value::Int(0)),
                Bound::Excluded(&Value::Int(1000)),
            )
            .unwrap();
        let depth = 4000usize.div_ceil(32);
        assert!(
            est.abs_diff(1000) <= 2 * depth,
            "single-key est {est} outside the zero-drift bound"
        );
        let est = g
            .count_nodes_with_composite(
                "P",
                &cols(&["k", "m"]),
                &[],
                crate::composite::CompositeTrailing::Range(
                    Bound::Included(&Value::Int(0)),
                    Bound::Excluded(&Value::Int(1000)),
                ),
            )
            .unwrap();
        assert!(
            est.abs_diff(1000) <= 2 * depth,
            "composite est {est} outside the zero-drift bound"
        );
    }

    #[test]
    fn labels_and_types_listing() {
        let mut g = Graph::new();
        let a = g.create_node(["B", "A"], PropertyMap::new()).unwrap();
        let b = g.create_node(["C"], PropertyMap::new()).unwrap();
        g.create_rel(a, b, "T2", PropertyMap::new()).unwrap();
        g.create_rel(a, b, "T1", PropertyMap::new()).unwrap();
        assert_eq!(g.labels(), vec!["A", "B", "C"]);
        assert_eq!(g.rel_types(), vec!["T1", "T2"]);
        assert_eq!(g.rels_with_type("T1").len(), 1);
    }
}
