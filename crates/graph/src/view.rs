//! Read views over graph state.
//!
//! [`GraphView`] is the read interface consumed by the query layer; it is
//! implemented by the live [`crate::Graph`] and by [`PreStateView`], which
//! reconstructs the state *preceding* an op-log slice. The PG-Trigger engine
//! evaluates `BEFORE` trigger conditions against a `PreStateView` so they
//! observe the database as it was before the activating statement (paper
//! §4.2 "Action Time").

use crate::composite::{IndexProbe, IndexStats};
use crate::ids::{Hop, IdHashMap, NodeId, RelId};
use crate::op::Op;
use crate::record::{NodeRecord, RelRecord};
use crate::store::Graph;
use crate::value::{Direction, Value};
use std::borrow::Cow;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// The extent an index definition covers — and thereby the kind of item
/// its probes return: node ids under a label, relationship ids under a
/// relationship type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexScope<'a> {
    Label(&'a str),
    RelType(&'a str),
}

/// What an [`IndexDef`] is declared on: the owned twin of [`IndexScope`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum IndexOn {
    Label(String),
    RelType(String),
}

/// One property-index definition `(label-or-type, [k1, k2, …])` — the
/// owned twin of the `(IndexScope, columns)` pair the probe path takes,
/// and the only shape index DDL speaks, from `CREATE INDEX` text to
/// snapshot bytes. A single-key index is the width-1 case. Definitions
/// order node-before-relationship, then by name, then by columns.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexDef {
    pub on: IndexOn,
    pub columns: Vec<String>,
}

impl IndexDef {
    /// The definition `(scope, columns)`, owned.
    pub fn new(scope: IndexScope<'_>, columns: &[impl AsRef<str>]) -> Self {
        IndexDef {
            on: match scope {
                IndexScope::Label(l) => IndexOn::Label(l.to_string()),
                IndexScope::RelType(t) => IndexOn::RelType(t.to_string()),
            },
            columns: columns.iter().map(|c| c.as_ref().to_string()).collect(),
        }
    }

    /// The node index `(label, columns)`.
    pub fn node(label: &str, columns: &[impl AsRef<str>]) -> Self {
        IndexDef::new(IndexScope::Label(label), columns)
    }

    /// The relationship index `(rel_type, columns)`.
    pub fn rel(rel_type: &str, columns: &[impl AsRef<str>]) -> Self {
        IndexDef::new(IndexScope::RelType(rel_type), columns)
    }

    /// The extent this definition covers, as the probe path names it.
    pub fn scope(&self) -> IndexScope<'_> {
        match &self.on {
            IndexOn::Label(l) => IndexScope::Label(l),
            IndexOn::RelType(t) => IndexScope::RelType(t),
        }
    }
}

/// The DDL operand: `:Label(k1, k2)` / `-[:TYPE(k)]-`, so
/// `CREATE INDEX ON {def}` parses back to `def` for identifier names.
impl fmt::Display for IndexDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let columns = self.columns.join(", ");
        match &self.on {
            IndexOn::Label(l) => write!(f, ":{l}({columns})"),
            IndexOn::RelType(t) => write!(f, "-[:{t}({columns})]-"),
        }
    }
}

/// What a [`GraphView::probe`] should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// How many items match — the planning access path. Exact except for
    /// leading-column ranges, which the live graph estimates from the
    /// definition's histogram (planning only — not for correctness).
    Count,
    /// The matching ids, ascending — the execution access path.
    Ids,
}

/// A [`GraphView::probe`] answer, in the shape the [`ProbeMode`] asked for.
/// Ids are raw: [`NodeId`]s under [`IndexScope::Label`], [`RelId`]s under
/// [`IndexScope::RelType`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Probed {
    Count(usize),
    Ids(Vec<u64>),
}

impl Probed {
    /// The number of matching items.
    pub fn count(&self) -> usize {
        match self {
            Probed::Count(n) => *n,
            Probed::Ids(ids) => ids.len(),
        }
    }

    /// The matching ids, typed by the caller's scope (empty for a
    /// count-only answer).
    pub fn into_ids<Id: From<u64>>(self) -> Vec<Id> {
        match self {
            Probed::Count(_) => Vec::new(),
            Probed::Ids(ids) => ids.into_iter().map(Id::from).collect(),
        }
    }
}

/// Read-only access to a graph state.
///
/// Item reads are two lenders, [`GraphView::node`] and [`GraphView::rel`]:
/// a caller fetches a record once and reads its labels, type, endpoints
/// and properties from the borrow, so no read copies a record field.
pub trait GraphView {
    /// The node record `id` as this view sees it; `None` when the node
    /// does not exist here.
    fn node(&self, id: NodeId) -> Option<&NodeRecord>;
    /// The relationship record `id` as this view sees it.
    fn rel(&self, id: RelId) -> Option<&RelRecord>;
    /// Nodes currently carrying `label` (index-backed on the live graph).
    fn nodes_with_label(&self, label: &str) -> Vec<NodeId>;
    fn all_node_ids(&self) -> Vec<NodeId>;
    fn all_rel_ids(&self) -> Vec<RelId>;
    /// The relationships of `node` in direction `dir` (`Out` or `In`;
    /// `Both` is two calls, and a caller drops a self-loop from the in-side
    /// by `other == node`), each with its other end: of type `rel_type`,
    /// or of every type when `None`. The store lends one run of its typed
    /// adjacency (runs by type in first-seen order, each in insertion
    /// order), or the whole list, without allocating or reading a record;
    /// overlay views build theirs, sorted by id.
    fn hops(&self, node: NodeId, dir: Direction, rel_type: Option<&str>) -> Cow<'_, [Hop]>;

    /// Relationships of the given type (the live graph answers from the
    /// type index).
    fn rels_with_type(&self, rel_type: &str) -> Vec<RelId>;

    /// Cardinality of a label extent — a planning estimate; must be exact
    /// enough that `0` means the extent is empty. The live graph answers in
    /// O(1) and the overlay views in O(touched items).
    fn label_cardinality(&self, label: &str) -> usize;

    /// Cardinality of a relationship-type extent (planning estimate, same
    /// contract as [`GraphView::label_cardinality`]).
    fn rel_type_cardinality(&self, rel_type: &str) -> usize;

    /// Total node count (planning estimate for full-scan costs).
    fn node_count_estimate(&self) -> usize;

    /// Total relationship count (planning estimate, symmetric with
    /// [`GraphView::node_count_estimate`]).
    fn rel_count_estimate(&self) -> usize;

    // ------------------------------------------------------------------
    // Property indexes. One definition is `(scope, [c1, c2, …])`; a
    // single-key index is the width-1 case. The walk and statistics
    // defaults are a view without them (callers fall back to sorts and
    // access-path-only costing).
    // ------------------------------------------------------------------

    /// The column lists indexed under `scope` (planner discovery; DDL is
    /// not transactional, so overlay views delegate to their base graph).
    fn index_defs(&self, scope: IndexScope<'_>) -> Vec<Arc<[String]>>;

    /// Probe the index `(scope, probe.columns)`: items whose leading
    /// columns equal `probe.eq` and whose next column satisfies
    /// `probe.trailing`. `None` = no index can answer faithfully (not
    /// indexed, unkeyable probe values, or a refusal rule — see
    /// [`crate::composite`]) and the caller falls back to a scan.
    fn probe(
        &self,
        scope: IndexScope<'_>,
        probe: IndexProbe<'_>,
        mode: ProbeMode,
    ) -> Option<Probed>;

    /// Walk the items of `scope` in `ORDER BY c_{j+1}, c_{j+2}, …` order
    /// over the columns after the `pins.len()` leading ones, which are
    /// pinned to equal `pins`: ascending [`Value::cmp_order`] with
    /// NULL/missing last, or fully reversed (missing first). The walk
    /// covers property-less items too. `None` when the definition does
    /// not cover every record (unkeyable values present) or the view
    /// cannot merge its overlay into a walk — fall back to sorting.
    fn ordered_walk(
        &self,
        _scope: IndexScope<'_>,
        _columns: &[String],
        _pins: &[Value],
        _descending: bool,
    ) -> Option<Box<dyn Iterator<Item = u64> + '_>> {
        None
    }

    /// Cardinality statistics of the index `(scope, columns)`; `None` =
    /// no statistics (not indexed, or an overlay view).
    fn index_stats(&self, _scope: IndexScope<'_>, _columns: &[String]) -> Option<IndexStats> {
        None
    }

    // ------------------------------------------------------------------
    // Degree statistics (planner v4): join-*output* cardinality. The live
    // graph and snapshots answer from per-(label, rel-type, direction)
    // entries maintained through every mutation and undo path; overlay
    // views keep the default (`None` = unknown, fall back to
    // access-path-only costing).
    // ------------------------------------------------------------------

    /// **Exact** count of (node, incident relationship) pairs where the
    /// node carries `label` and the relationship has `rel_type` leaving
    /// (`Out`) or entering (`In`) it; `Both` sums the two (a self-loop
    /// counts twice). Dividing by [`GraphView::label_cardinality`] gives
    /// the average degree — the expected join fanout of expanding a
    /// `label`-typed variable along a `rel_type` hop. `None` = this view
    /// maintains no degree statistics.
    fn degree_edge_count(&self, _label: &str, _rel_type: &str, _dir: Direction) -> Option<usize> {
        None
    }
}

/// Correct a base-graph probe answer for the items an op slice touched:
/// a count moves by one per touched item whose match status differs
/// between its base record and its pre-state record (the base answer may
/// be an estimate; the correction is exact per item, so the error bound
/// carries over); an id list drops every touched id and re-admits the
/// pre-state records that match.
fn correct_probe<'r, Id, R: 'r>(
    base: Probed,
    touched: &IdHashMap<Id, Option<R>>,
    base_rec: impl Fn(Id) -> Option<&'r R>,
    matches: impl Fn(&R) -> bool,
) -> Probed
where
    Id: Copy + Eq + Hash + From<u64> + Into<u64>,
{
    match base {
        Probed::Count(n) => {
            let mut n = n as isize;
            for (id, pre) in touched {
                let pre_m = pre.as_ref().is_some_and(&matches);
                let base_m = base_rec(*id).is_some_and(&matches);
                n += pre_m as isize - base_m as isize;
            }
            Probed::Count(n.max(0) as usize)
        }
        Probed::Ids(mut ids) => {
            ids.retain(|raw| !touched.contains_key(&Id::from(*raw)));
            ids.extend(
                touched
                    .iter()
                    .filter(|(_, pre)| pre.as_ref().is_some_and(&matches))
                    .map(|(id, _)| (*id).into()),
            );
            ids.sort_unstable();
            Probed::Ids(ids)
        }
    }
}

/// The state of the graph **before** a slice of operations was applied.
///
/// Constructed from the live graph and the op slice; overlays are
/// materialized eagerly (the number of touched items is bounded by the slice
/// length, not the graph size).
pub struct PreStateView<'g> {
    base: &'g Graph,
    /// Pre-state of touched nodes: `None` = did not exist before the slice.
    nodes: IdHashMap<NodeId, Option<NodeRecord>>,
    /// Pre-state of touched relationships.
    rels: IdHashMap<RelId, Option<RelRecord>>,
}

impl<'g> PreStateView<'g> {
    /// Build the pre-state of `base` with respect to `ops` (which must be
    /// the exact op sequence that produced the current state of `base` from
    /// the desired pre-state).
    pub fn new(base: &'g Graph, ops: &[Op]) -> Self {
        let mut nodes: IdHashMap<NodeId, Option<NodeRecord>> = IdHashMap::default();
        let mut rels: IdHashMap<RelId, Option<RelRecord>> = IdHashMap::default();
        // Seed with the *current* state of every touched item, then unwind.
        for op in ops {
            if let Some(nid) = op.node_id() {
                nodes.entry(nid).or_insert_with(|| base.node(nid).cloned());
            }
            if let Some(rid) = op.rel_id() {
                rels.entry(rid).or_insert_with(|| base.rel(rid).cloned());
            }
        }
        for op in ops.iter().rev() {
            match op {
                Op::CreateNode { record } => {
                    nodes.insert(record.id, None);
                }
                Op::DeleteNode { record } => {
                    nodes.insert(record.id, Some(record.clone()));
                }
                Op::CreateRel { record } => {
                    rels.insert(record.id, None);
                }
                Op::DeleteRel { record } => {
                    rels.insert(record.id, Some(record.clone()));
                }
                Op::SetLabel { node, label } => {
                    if let Some(Some(n)) = nodes.get_mut(node) {
                        n.labels.remove(label);
                    }
                }
                Op::RemoveLabel { node, label } => {
                    if let Some(Some(n)) = nodes.get_mut(node) {
                        n.labels.insert(label.clone());
                    }
                }
                Op::SetNodeProp { node, key, old, .. } => {
                    if let Some(Some(n)) = nodes.get_mut(node) {
                        match old {
                            Some(v) => {
                                n.props.set(key.clone(), v.clone());
                            }
                            None => {
                                n.props.remove(key);
                            }
                        }
                    }
                }
                Op::RemoveNodeProp { node, key, old } => {
                    if let Some(Some(n)) = nodes.get_mut(node) {
                        n.props.set(key.clone(), old.clone());
                    }
                }
                Op::SetRelProp { rel, key, old, .. } => {
                    if let Some(Some(r)) = rels.get_mut(rel) {
                        match old {
                            Some(v) => {
                                r.props.set(key.clone(), v.clone());
                            }
                            None => {
                                r.props.remove(key);
                            }
                        }
                    }
                }
                Op::RemoveRelProp { rel, key, old } => {
                    if let Some(Some(r)) = rels.get_mut(rel) {
                        r.props.set(key.clone(), old.clone());
                    }
                }
            }
        }
        PreStateView { base, nodes, rels }
    }
}

impl GraphView for PreStateView<'_> {
    // Touched items lend their pre-state record from the overlay, the
    // rest read through to the base graph.

    fn node(&self, id: NodeId) -> Option<&NodeRecord> {
        match self.nodes.get(&id) {
            Some(overlay) => overlay.as_ref(),
            None => self.base.node(id),
        }
    }

    fn rel(&self, id: RelId) -> Option<&RelRecord> {
        match self.rels.get(&id) {
            Some(overlay) => overlay.as_ref(),
            None => self.base.rel(id),
        }
    }

    fn nodes_with_label(&self, label: &str) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .base
            .nodes_with_label(label)
            .into_iter()
            .filter(|id| !self.nodes.contains_key(id))
            .collect();
        for (id, overlay) in &self.nodes {
            if let Some(rec) = overlay {
                if rec.has_label(label) {
                    out.push(*id);
                }
            }
        }
        out.sort();
        out
    }

    fn label_cardinality(&self, label: &str) -> usize {
        // Candidate planning probes every label of a pattern; answer in
        // O(touched) by correcting the base count instead of materializing
        // and sorting the whole extent.
        let mut n = self.base.label_cardinality(label);
        for (id, overlay) in &self.nodes {
            let base_has = self.base.node(*id).is_some_and(|n| n.has_label(label));
            let pre_has = overlay
                .as_ref()
                .map(|r| r.has_label(label))
                .unwrap_or(false);
            match (base_has, pre_has) {
                (true, false) => n -= 1,
                (false, true) => n += 1,
                _ => {}
            }
        }
        n
    }

    fn rels_with_type(&self, rel_type: &str) -> Vec<RelId> {
        // Base type extent minus rels that did not exist before the slice,
        // plus restored (deleted-in-slice) rels of the type.
        let mut out: Vec<RelId> = self
            .base
            .rels_with_type(rel_type)
            .into_iter()
            .filter(|id| match self.rels.get(id) {
                Some(overlay) => overlay.is_some(),
                None => true,
            })
            .collect();
        for (id, overlay) in &self.rels {
            if let Some(rec) = overlay {
                if rec.rel_type == rel_type && self.base.rel(*id).is_none() {
                    out.push(*id);
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    fn rel_type_cardinality(&self, rel_type: &str) -> usize {
        // O(touched) correction of the base count (planning hot path).
        let mut n = self.base.rel_type_cardinality(rel_type);
        for (id, overlay) in &self.rels {
            let base_has = self
                .base
                .rel(*id)
                .map(|r| r.rel_type == rel_type)
                .unwrap_or(false);
            let pre_has = overlay
                .as_ref()
                .map(|r| r.rel_type == rel_type)
                .unwrap_or(false);
            match (base_has, pre_has) {
                (true, false) => n -= 1,
                (false, true) => n += 1,
                _ => {}
            }
        }
        n
    }

    fn node_count_estimate(&self) -> usize {
        let mut n = self.base.node_count_estimate();
        for (id, overlay) in &self.nodes {
            match (self.base.node(*id).is_some(), overlay.is_some()) {
                (true, false) => n -= 1,
                (false, true) => n += 1,
                _ => {}
            }
        }
        n
    }

    fn rel_count_estimate(&self) -> usize {
        // O(touched) correction of the base count (planning hot path).
        let mut n = self.base.rel_count_estimate();
        for (id, overlay) in &self.rels {
            match (self.base.rel(*id).is_some(), overlay.is_some()) {
                (true, false) => n -= 1,
                (false, true) => n += 1,
                _ => {}
            }
        }
        n
    }

    // Index probes: the base index's answer corrected by the touched
    // overlay, in O(base answer + touched) — pre-state trigger conditions
    // get the same access paths the live graph has, and the planner's
    // count estimates always agree with what execution can materialize.
    // When the base index refuses (`None`), so does the pre-state (both
    // sides fall back to a scan together). Ordered walks and statistics
    // stay at the trait defaults: an overlay cannot be merged into a walk
    // in O(touched).

    fn index_defs(&self, scope: IndexScope<'_>) -> Vec<Arc<[String]>> {
        self.base.index_defs(scope)
    }

    fn probe(
        &self,
        scope: IndexScope<'_>,
        probe: IndexProbe<'_>,
        mode: ProbeMode,
    ) -> Option<Probed> {
        let base = self.base.probe(scope, probe, mode)?;
        Some(match scope {
            IndexScope::Label(label) => correct_probe(
                base,
                &self.nodes,
                |id| self.base.node(id),
                |r: &NodeRecord| r.has_label(label) && probe.matches(&r.props),
            ),
            IndexScope::RelType(rel_type) => correct_probe(
                base,
                &self.rels,
                |id| self.base.rel(id),
                |r: &RelRecord| r.rel_type == rel_type && probe.matches(&r.props),
            ),
        })
    }

    fn all_node_ids(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .base
            .all_node_ids()
            .into_iter()
            .filter(|id| match self.nodes.get(id) {
                Some(overlay) => overlay.is_some(),
                None => true,
            })
            .collect();
        for (id, overlay) in &self.nodes {
            if overlay.is_some() && self.base.node(*id).is_none() {
                out.push(*id);
            }
        }
        out.sort();
        out.dedup();
        out
    }

    fn all_rel_ids(&self) -> Vec<RelId> {
        let mut out: Vec<RelId> = self
            .base
            .all_rel_ids()
            .into_iter()
            .filter(|id| match self.rels.get(id) {
                Some(overlay) => overlay.is_some(),
                None => true,
            })
            .collect();
        for (id, overlay) in &self.rels {
            if overlay.is_some() && self.base.rel(*id).is_none() {
                out.push(*id);
            }
        }
        out.sort();
        out.dedup();
        out
    }

    fn hops(&self, node: NodeId, dir: Direction, rel_type: Option<&str>) -> Cow<'_, [Hop]> {
        // Base adjacency minus rels that did not exist before, plus restored
        // (deleted-in-slice) rels of the type at `node` in `dir`.
        let mut out: Vec<Hop> = self
            .base
            .hops(node, dir, rel_type)
            .iter()
            .copied()
            .filter(|(id, _)| match self.rels.get(id) {
                Some(overlay) => overlay.is_some(),
                None => true,
            })
            .collect();
        for (id, overlay) in &self.rels {
            if let Some(rec) = overlay {
                if self.base.rel(*id).is_some() || rel_type.is_some_and(|ty| ty != rec.rel_type) {
                    continue; // already covered by base adjacency, or not asked for
                }
                let other = match dir {
                    Direction::Out if rec.src == node => rec.dst,
                    Direction::In if rec.dst == node => rec.src,
                    _ => continue,
                };
                out.push((*id, other));
            }
        }
        out.sort();
        Cow::Owned(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::CompositeTrailing;
    use crate::props::PropertyMap;
    use std::ops::Bound;

    fn props(entries: &[(&str, Value)]) -> PropertyMap {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// Build a graph, run mutations in a tx, return graph + ops since mark.
    /// `setup` returns a value (usually ids) that is handed to `stmt`.
    fn run<T>(
        setup: impl FnOnce(&mut Graph) -> T,
        stmt: impl FnOnce(&mut Graph, &T),
    ) -> (Graph, Vec<Op>, T) {
        let mut g = Graph::new();
        let t = setup(&mut g);
        g.begin().unwrap();
        let mark = g.mark();
        stmt(&mut g, &t);
        let ops = g.ops_since(mark).to_vec();
        (g, ops, t)
    }

    #[test]
    fn created_node_absent_in_pre_state() {
        let (g, ops, _) = run(
            |_| (),
            |g, _| {
                g.create_node(["A"], PropertyMap::new()).unwrap();
            },
        );
        let pre = PreStateView::new(&g, &ops);
        assert!(pre.all_node_ids().is_empty());
        assert!(pre.nodes_with_label("A").is_empty());
    }

    #[test]
    fn deleted_node_present_in_pre_state() {
        let (g, ops, n) = run(
            |g| {
                g.create_node(["A"], props(&[("x", Value::Int(1))]))
                    .unwrap()
            },
            |g, n| {
                g.detach_delete_node(*n).unwrap();
            },
        );
        assert!(g.node(n).is_none());
        let pre = PreStateView::new(&g, &ops);
        assert!(pre.node(n).is_some());
        assert_eq!(
            pre.node(n).and_then(|n| n.props.get("x")).cloned(),
            Some(Value::Int(1))
        );
        assert_eq!(pre.nodes_with_label("A"), vec![n]);
    }

    #[test]
    fn prop_changes_unwound() {
        let (g, ops, n) = run(
            |g| {
                g.create_node(["A"], props(&[("x", Value::Int(1))]))
                    .unwrap()
            },
            |g, n| {
                g.set_node_prop(*n, "x", Value::Int(2)).unwrap();
                g.set_node_prop(*n, "y", Value::Int(9)).unwrap();
                g.remove_node_prop(*n, "x").unwrap();
            },
        );
        assert_eq!(g.node(n).and_then(|n| n.props.get("x")).cloned(), None);
        assert_eq!(
            g.node(n).and_then(|n| n.props.get("y")).cloned(),
            Some(Value::Int(9))
        );
        let pre = PreStateView::new(&g, &ops);
        assert_eq!(
            pre.node(n).and_then(|n| n.props.get("x")).cloned(),
            Some(Value::Int(1))
        );
        assert_eq!(pre.node(n).and_then(|n| n.props.get("y")).cloned(), None);
        assert_eq!(
            pre.node(n)
                .map(|n| n.props.keys().cloned().collect::<Vec<_>>())
                .unwrap_or_default(),
            vec!["x".to_string()]
        );
    }

    #[test]
    fn label_changes_unwound() {
        let (g, ops, n) = run(
            |g| g.create_node(["A"], PropertyMap::new()).unwrap(),
            |g, n| {
                g.set_label(*n, "B").unwrap();
                g.remove_label(*n, "A").unwrap();
            },
        );
        assert!(
            g.node(n).is_some_and(|n| n.has_label("B"))
                && !g.node(n).is_some_and(|n| n.has_label("A"))
        );
        let pre = PreStateView::new(&g, &ops);
        assert!(pre.node(n).is_some_and(|n| n.has_label("A")));
        assert!(!pre.node(n).is_some_and(|n| n.has_label("B")));
        assert_eq!(pre.nodes_with_label("A"), vec![n]);
        assert!(pre.nodes_with_label("B").is_empty());
    }

    #[test]
    fn label_cardinality_matches_extent_through_overlays() {
        let (g, ops, n) = run(
            |g| {
                let keep = g.create_node(["A"], PropertyMap::new()).unwrap();
                g.create_node(["A"], PropertyMap::new()).unwrap();
                keep
            },
            |g, keep| {
                // touch existing nodes both ways and create a fresh one
                g.remove_label(*keep, "A").unwrap();
                g.set_label(*keep, "B").unwrap();
                g.create_node(["A"], PropertyMap::new()).unwrap();
            },
        );
        let pre = PreStateView::new(&g, &ops);
        for label in ["A", "B", "Absent"] {
            assert_eq!(
                pre.label_cardinality(label),
                pre.nodes_with_label(label).len(),
                "pre-state cardinality for {label}"
            );
        }
        assert_eq!(pre.label_cardinality("A"), 2);
        assert_eq!(pre.label_cardinality("B"), 0);
        let _ = n;
    }

    /// Probe the width-1 index `(label, key)` on a view.
    fn probe1(
        view: &dyn GraphView,
        label: &str,
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
        view.probe(IndexScope::Label(label), probe, mode)
    }

    #[test]
    fn index_probes_correct_for_overlays() {
        // Planning estimates (counts) and execution access paths (id
        // lookups) must agree on a pre-state view: both answer from the
        // base index corrected by the overlay.
        let (g, ops, deleted) = run(
            |g| {
                let mut last = NodeId(0);
                for i in 0..6 {
                    last = g
                        .create_node(["P"], props(&[("v", Value::Int(i))]))
                        .unwrap();
                }
                g.create_index("P", "v");
                last
            },
            |g, deleted| {
                g.detach_delete_node(*deleted).unwrap(); // v=5 restored in pre
                g.create_node(["P"], props(&[("v", Value::Int(2))]))
                    .unwrap(); // absent in pre
            },
        );
        let pre = PreStateView::new(&g, &ops);
        let none = CompositeTrailing::None;
        for (v, want) in [(5, vec![deleted.0]), (2, vec![2])] {
            let eq = [Value::Int(v)];
            assert_eq!(
                probe1(&pre, "P", "v", &eq, none, ProbeMode::Ids),
                Some(Probed::Ids(want))
            );
            assert_eq!(
                probe1(&pre, "P", "v", &eq, none, ProbeMode::Count),
                Some(Probed::Count(1))
            );
        }
        let three = Value::Int(3);
        let from3 = CompositeTrailing::Range(Bound::Included(&three), Bound::Unbounded);
        let in_range = probe1(&pre, "P", "v", &[], from3, ProbeMode::Ids).unwrap();
        assert_eq!(in_range.count(), 3); // v ∈ {3, 4, 5}
        assert_eq!(
            probe1(&pre, "P", "v", &[], from3, ProbeMode::Count),
            Some(Probed::Count(3))
        );
        // unindexed key: both sides refuse together
        for mode in [ProbeMode::Ids, ProbeMode::Count] {
            assert_eq!(probe1(&pre, "P", "w", &[Value::Int(1)], none, mode), None);
        }
        assert_eq!(pre.rel_count_estimate(), 0);
    }

    #[test]
    fn adjacency_reflects_pre_state() {
        let (g, ops, (a, b, old_r)) = run(
            |g| {
                let a = g.create_node(["A"], PropertyMap::new()).unwrap();
                let b = g.create_node(["B"], PropertyMap::new()).unwrap();
                let r = g.create_rel(a, b, "R", PropertyMap::new()).unwrap();
                (a, b, r)
            },
            |g, (a, b, r)| {
                g.delete_rel(*r).unwrap();
                g.create_rel(*b, *a, "R2", PropertyMap::new()).unwrap();
            },
        );
        let pre = PreStateView::new(&g, &ops);
        assert_eq!(pre.hops(a, Direction::Out, None), vec![(old_r, b)]);
        assert_eq!(pre.hops(a, Direction::Out, Some("R")), vec![(old_r, b)]);
        assert_eq!(pre.hops(a, Direction::Out, Some("R2")), vec![]);
        assert_eq!(pre.hops(a, Direction::In, None), vec![]);
        assert_eq!(pre.hops(b, Direction::In, None), vec![(old_r, a)]);
        assert_eq!(pre.hops(b, Direction::Out, None), vec![]);
        assert_eq!(pre.rel(old_r).map(|r| (r.src, r.dst)), Some((a, b)));
        assert_eq!(
            pre.rel(old_r).map(|r| r.rel_type.clone()),
            Some("R".to_string())
        );
        assert_eq!(pre.all_rel_ids(), vec![old_r]);
    }

    /// The pre-state lends one record per item the slice did not create:
    /// an untouched item's record is the base graph's own (a borrow, not a
    /// copy), an updated or deleted item's is the overlay's record as it
    /// was before the slice, and a created item has none.
    #[test]
    fn lends_pre_state_records() {
        let (g, ops, (untouched, updated, deleted, r_updated)) = run(
            |g| {
                let untouched = g
                    .create_node(["A"], props(&[("v", Value::Int(1))]))
                    .unwrap();
                let updated = g
                    .create_node(["A"], props(&[("v", Value::Int(2))]))
                    .unwrap();
                let deleted = g
                    .create_node(["A"], props(&[("v", Value::Int(3))]))
                    .unwrap();
                let w = props(&[("w", Value::Int(1))]);
                let r_updated = g.create_rel(untouched, updated, "R", w).unwrap();
                g.create_rel(updated, deleted, "R", PropertyMap::new())
                    .unwrap();
                (untouched, updated, deleted, r_updated)
            },
            |g, &(_, updated, deleted, r_updated)| {
                g.set_node_prop(updated, "v", Value::Int(20)).unwrap();
                g.set_label(updated, "B").unwrap();
                g.set_rel_prop(r_updated, "w", Value::Int(10)).unwrap();
                g.detach_delete_node(deleted).unwrap();
                g.create_node(["A"], PropertyMap::new()).unwrap();
            },
        );
        let created = NodeId(3);
        let pre = PreStateView::new(&g, &ops);
        let lent = pre.node(untouched).unwrap();
        assert!(std::ptr::eq(lent, g.node(untouched).unwrap()));
        let was = |id: NodeId, v: i64| NodeRecord {
            id,
            labels: ["A".to_string()].into_iter().collect(),
            props: props(&[("v", Value::Int(v))]),
        };
        assert_eq!(pre.node(updated), Some(&was(updated, 2)));
        assert_eq!(
            g.node(updated).unwrap().props.get("v"),
            Some(&Value::Int(20))
        );
        assert_eq!(pre.node(deleted), Some(&was(deleted, 3)));
        assert!(g.node(deleted).is_none());
        assert!(g.node(created).is_some() && pre.node(created).is_none());
        let rel = pre.rel(r_updated).unwrap();
        assert_eq!(rel.props.get("w"), Some(&Value::Int(1)));
        assert_eq!(
            (rel.src, rel.dst, rel.rel_type.as_str()),
            (untouched, updated, "R")
        );
    }

    #[test]
    fn rel_prop_changes_unwound() {
        let (g, ops, r) = run(
            |g| {
                let a = g.create_node(["A"], PropertyMap::new()).unwrap();
                let b = g.create_node(["B"], PropertyMap::new()).unwrap();
                g.create_rel(a, b, "R", props(&[("w", Value::Int(1))]))
                    .unwrap()
            },
            |g, r| {
                g.set_rel_prop(*r, "w", Value::Int(5)).unwrap();
            },
        );
        assert_eq!(
            g.rel(r).and_then(|r| r.props.get("w")).cloned(),
            Some(Value::Int(5))
        );
        let pre = PreStateView::new(&g, &ops);
        assert_eq!(
            pre.rel(r).and_then(|r| r.props.get("w")).cloned(),
            Some(Value::Int(1))
        );
    }

    #[test]
    fn untouched_items_read_through() {
        let (g, ops, a) = run(
            |g| {
                g.create_node(["Stable"], props(&[("p", Value::Int(7))]))
                    .unwrap()
            },
            |g, _| {
                g.create_node(["Other"], PropertyMap::new()).unwrap();
            },
        );
        let pre = PreStateView::new(&g, &ops);
        assert!(pre.node(a).is_some());
        assert_eq!(
            pre.node(a).and_then(|n| n.props.get("p")).cloned(),
            Some(Value::Int(7))
        );
        assert_eq!(pre.nodes_with_label("Stable"), vec![a]);
        assert_eq!(pre.all_node_ids(), vec![a]);
    }
}
