//! Physical planning: access paths **as data** (planner v4).
//!
//! The access-path decision is split from its execution: `Sargs`
//! evaluates a pattern variable's search arguments once, chooses the most
//! selective index probe **count-only** and returns it as an
//! [`IndexAccess`] value — plain data naming the definition, the equality
//! prefix and the trailing bound; only a chosen probe is ever materialized
//! into a candidate vector.
//!
//! **One decision per pattern position.** `choose_node_access` is the only
//! place a node position's access is chosen and `choose_rel_seed` the only
//! place a relationship seed's is. The join-order planner
//! ([`crate::pattern`]'s `plan_patterns`) costs anchors with them and keeps
//! the winner in the [`PhysicalPathPlan`] it returns; `EXPLAIN` renders
//! that value and the matcher materializes it (`NodeAccess::candidates`).
//!
//! **Join-output cardinality** (planner v4): `hop_fanout` estimates
//! the expected number of output rows per input row of a hop from the
//! per-(label, rel-type, direction) degree statistics maintained by
//! pg-graph ([`pg_graph::GraphView::degree_edge_count`]): the average
//! degree `edges / |label|` is exact at every instant, so a whole-extent
//! expansion estimate is exact and filtered expansions inherit only the
//! access path's estimation error. The join-order planner feeds these
//! fanouts into path costs (anchor cost + cumulative expected rows per
//! hop), and `EXPLAIN` prints estimated rows per operator next to the
//! actual rows observed during execution.

use crate::ast::{BinOp, Expr, NodePattern, PathPattern, RelPattern};
use crate::error::{CypherError, Result};
use crate::expr::{eval, EvalCtx};
use crate::pattern::{nodes_from_value, Pushdowns};
use crate::row::Row;
use pg_graph::{
    CompositeTrailing, Direction, IdHashSet, IndexProbe, IndexScope, NodeId, ProbeMode, RelId,
    Value,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// Owned form of [`CompositeTrailing`]: the trailing bound of an index
/// probe as assembled by the planner.
#[derive(Debug, Clone, PartialEq)]
pub enum TrailingOwned {
    None,
    Range(Bound<Value>, Bound<Value>),
    Prefix(String),
}

/// An index probe as data: the definition's column list, the equality
/// values of its leading columns, and at most one trailing range or
/// `STARTS WITH` bound on the next column.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexAccess {
    pub columns: Arc<[String]>,
    pub eq: Vec<Value>,
    pub trailing: TrailingOwned,
}

impl IndexAccess {
    fn probe(&self) -> IndexProbe<'_> {
        IndexProbe {
            columns: &self.columns,
            eq: &self.eq,
            trailing: match &self.trailing {
                TrailingOwned::None => CompositeTrailing::None,
                TrailingOwned::Range(lo, hi) => CompositeTrailing::Range(lo.as_ref(), hi.as_ref()),
                TrailingOwned::Prefix(p) => CompositeTrailing::Prefix(p),
            },
        }
    }

    /// Count-only cardinality (O(log n) / histogram); `None` when the
    /// index cannot serve the probe.
    pub(crate) fn count(&self, ctx: &EvalCtx<'_>, scope: IndexScope<'_>) -> Option<usize> {
        Some(
            ctx.view
                .probe(scope, self.probe(), ProbeMode::Count)?
                .count(),
        )
    }

    /// Materialize the probe into its id vector, typed by the caller's
    /// scope.
    pub(crate) fn ids<Id: From<u64>>(
        &self,
        ctx: &EvalCtx<'_>,
        scope: IndexScope<'_>,
    ) -> Option<Vec<Id>> {
        Some(
            ctx.view
                .probe(scope, self.probe(), ProbeMode::Ids)?
                .into_ids(),
        )
    }
}

/// The search arguments of one pattern variable: its inline `{key: value}`
/// properties and pushed-down `WHERE` conjuncts, evaluated against the
/// current row — everything an index probe can consume. Conjuncts whose
/// operand cannot be evaluated yet (it references a variable bound later)
/// are skipped; the predicate itself is still enforced by the matcher and
/// the `WHERE` evaluation.
#[derive(Debug, Default)]
pub(crate) struct Sargs {
    /// Some conjunct can never be truthy (a NULL/NaN range operand, a
    /// non-string `STARTS WITH` operand): the candidate set is
    /// definitively empty, no index required.
    pub(crate) never: bool,
    /// Evaluated equality conjuncts, in predicate order.
    pub(crate) eqs: Vec<(String, Value)>,
    /// Keys of equality conjuncts whose operand is not evaluable yet.
    pub(crate) deferred_eqs: Vec<String>,
    /// The tightest interval per key from the `<`/`<=`/`>`/`>=` conjuncts.
    pub(crate) intervals: HashMap<String, (Bound<Value>, Bound<Value>)>,
    /// Evaluated `STARTS WITH` conjuncts.
    pub(crate) prefixes: Vec<(String, String)>,
}

impl Sargs {
    /// Evaluate the inline property map of a pattern position plus the
    /// conjuncts pushed down onto its variable.
    pub(crate) fn eval(
        ctx: &EvalCtx<'_>,
        row: &Row,
        var: Option<&String>,
        inline: &[(String, Expr)],
        pushed: &Pushdowns,
    ) -> Sargs {
        let preds = var.and_then(|v| pushed.get(v));
        let mut out = Sargs::default();
        let pushed_eqs = preds.map(|p| p.eqs.as_slice()).unwrap_or(&[]);
        for (key, expr) in inline.iter().chain(pushed_eqs) {
            match eval(ctx, row, expr) {
                Ok(value) => out.eqs.push((key.clone(), value)),
                Err(_) => out.deferred_eqs.push(key.clone()),
            }
        }
        let Some(preds) = preds else {
            return out;
        };
        // The tightest interval per key. A NULL or NaN operand makes its
        // conjunct untruthy for every row.
        for (key, op, expr) in &preds.ranges {
            let Ok(value) = eval(ctx, row, expr) else {
                continue;
            };
            if value.is_null() || matches!(&value, Value::Float(f) if f.is_nan()) {
                out.never = true;
                return out;
            }
            let entry = out
                .intervals
                .entry(key.clone())
                .or_insert((Bound::Unbounded, Bound::Unbounded));
            match op {
                BinOp::Gt | BinOp::Ge => tighten(&mut entry.0, value, *op == BinOp::Ge, true),
                BinOp::Lt | BinOp::Le => tighten(&mut entry.1, value, *op == BinOp::Le, false),
                _ => {}
            }
        }
        for (key, expr) in &preds.prefixes {
            match eval(ctx, row, expr) {
                Ok(Value::Str(prefix)) => out.prefixes.push((key.clone(), prefix)),
                Ok(_) => out.never = true,
                Err(_) => {}
            }
        }
        out
    }

    pub(crate) fn is_empty(&self) -> bool {
        !self.never && self.eqs.is_empty() && self.intervals.is_empty() && self.prefixes.is_empty()
    }

    /// The longest-equality-prefix probe the definition `def` can serve:
    /// walk its columns collecting equality values until the first column
    /// without one; that column may contribute one trailing range or
    /// `STARTS WITH` bound. `None` when the definition constrains nothing.
    fn probe_for(&self, def: Arc<[String]>) -> Option<IndexAccess> {
        let mut eq: Vec<Value> = Vec::new();
        let mut trailing = TrailingOwned::None;
        for col in def.iter() {
            if let Some((_, v)) = self.eqs.iter().find(|(k, _)| k == col) {
                eq.push(v.clone());
                continue;
            }
            if let Some((lo, hi)) = self.intervals.get(col) {
                trailing = TrailingOwned::Range(lo.clone(), hi.clone());
            } else if let Some((_, p)) = self.prefixes.iter().find(|(k, _)| k == col) {
                trailing = TrailingOwned::Prefix(p.clone());
            }
            break;
        }
        if eq.is_empty() && trailing == TrailingOwned::None {
            return None;
        }
        Some(IndexAccess {
            columns: def,
            eq,
            trailing,
        })
    }

    /// The most selective answerable probe over `scope`'s index
    /// definitions, chosen **count-only** — nothing is materialized.
    /// Single-key definitions are counted first, so a multi-key probe
    /// only wins when *strictly* more selective.
    pub(crate) fn best_probe(
        &self,
        ctx: &EvalCtx<'_>,
        scope: IndexScope<'_>,
    ) -> Option<(IndexAccess, usize)> {
        if self.is_empty() {
            return None; // nothing to probe with: skip the catalog lookup
        }
        let mut defs = ctx.view.index_defs(scope);
        defs.sort_by_key(|def| def.len() > 1);
        let mut best: Option<(IndexAccess, usize)> = None;
        for access in defs.into_iter().filter_map(|def| self.probe_for(def)) {
            if let Some(count) = access.count(ctx, scope) {
                if best.as_ref().is_none_or(|(_, b)| count < *b) {
                    best = Some((access, count));
                }
            }
        }
        best
    }

    /// What the equality conjuncts whose operand is bound by a later join
    /// path will narrow the position to: the smallest average equality
    /// bucket `keyed_total / keyed_distinct` of their keys' single-key
    /// indexes under `scope`. `None` = no such conjunct is indexed.
    fn deferred_estimate(&self, ctx: &EvalCtx<'_>, scope: IndexScope<'_>) -> Option<usize> {
        let avg_bucket = |key| {
            let st = ctx.view.index_stats(scope, std::slice::from_ref(key))?;
            Some(st.keyed_total.checked_div(st.keyed_distinct)?.max(1))
        };
        self.deferred_eqs.iter().filter_map(avg_bucket).min()
    }
}

/// Replace `slot` when `value` tightens it: a greater lower bound /
/// smaller upper bound wins, and at equal values an exclusive bound beats
/// an inclusive one.
fn tighten(slot: &mut Bound<Value>, value: Value, inclusive: bool, lower: bool) {
    use std::cmp::Ordering;
    let replaces = match &*slot {
        Bound::Unbounded => true,
        Bound::Included(c) | Bound::Excluded(c) => {
            let ord = value.cmp_order(c);
            if lower {
                ord != Ordering::Less
            } else {
                ord != Ordering::Greater
            }
        }
    };
    if !replaces {
        return;
    }
    let stay_exclusive =
        matches!(&*slot, Bound::Excluded(c) if value.cmp_order(c) == std::cmp::Ordering::Equal);
    *slot = if inclusive && !stay_exclusive {
        Bound::Included(value)
    } else {
        Bound::Excluded(value)
    };
}

// ---------------------------------------------------------------------
// Access paths as data: one decision per pattern position
// ---------------------------------------------------------------------

/// How a planned path obtains its start candidates: chosen once by the
/// join-order planner, rendered by `EXPLAIN`, materialized by the matchers.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeAccess {
    /// The variable is already bound in the row: one candidate.
    BoundVar(String),
    /// A transition-variable label (`NEW`, `NEWNODES`, …) restricts
    /// candidates to the bound item(s).
    Transition(String),
    /// A pushed conjunct can never be truthy: definitively empty.
    Empty,
    /// A probe of one of `label`'s indexes. Rendered from its shape: a
    /// single-key definition is `IndexEq`, `IndexRange` or `IndexPrefix`,
    /// a multi-key one `CompositeProbe`.
    Index { label: String, access: IndexAccess },
    /// Intersection of label extents, enumerated from the smallest.
    LabelScan { labels: Vec<String> },
    /// Unconstrained: every node.
    AllNodes,
    /// The endpoints of the first segment's relationship, whose variable
    /// is already bound.
    BoundRel(String),
    /// The endpoints of the first segment's relationship extent: per
    /// relationship type, a probe of one of its indexes (`RelIndexEq`, …)
    /// or the whole type extent (`RelTypeScan`).
    RelScan(Vec<(String, Option<IndexAccess>)>),
}

/// `IndexEq(L.k)`-style name of a probe of one of `extent`'s indexes.
fn fmt_probe(f: &mut fmt::Formatter<'_>, extent: &str, access: &IndexAccess) -> fmt::Result {
    match (&access.columns[..], &access.trailing) {
        ([key], TrailingOwned::None) => write!(f, "IndexEq({extent}.{key})"),
        ([key], TrailingOwned::Range(..)) => write!(f, "IndexRange({extent}.{key})"),
        ([key], TrailingOwned::Prefix(_)) => write!(f, "IndexPrefix({extent}.{key})"),
        (columns, _) => write!(f, "CompositeProbe({extent}[{}])", columns.join(",")),
    }
}

impl fmt::Display for NodeAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeAccess::BoundVar(v) => write!(f, "BoundVar({v})"),
            NodeAccess::Transition(l) => write!(f, "Transition({l})"),
            NodeAccess::Empty => write!(f, "Empty"),
            NodeAccess::Index { label, access } => fmt_probe(f, label, access),
            NodeAccess::LabelScan { labels } => write!(f, "LabelScan({})", labels.join("&")),
            NodeAccess::AllNodes => write!(f, "AllNodes"),
            NodeAccess::BoundRel(v) => write!(f, "BoundRel({v})"),
            NodeAccess::RelScan(types) => {
                for (i, (rel_type, probe)) in types.iter().enumerate() {
                    if i > 0 {
                        f.write_str("|")?;
                    }
                    match probe {
                        Some(access) => {
                            f.write_str("Rel")?;
                            fmt_probe(f, rel_type, access)?;
                        }
                        None => write!(f, "RelTypeScan({rel_type})")?,
                    }
                }
                Ok(())
            }
        }
    }
}

impl NodeAccess {
    /// Materialize the access into the start candidates of `path` for one
    /// binding row: a superset of the nodes that can start a match (the
    /// matcher still checks the pattern and the `WHERE`), ascending by id
    /// except `Transition`, which keeps the bound list's order (each node
    /// once).
    pub(crate) fn candidates(
        &self,
        ctx: &EvalCtx<'_>,
        row: &Row,
        path: &PathPattern,
    ) -> Result<Vec<NodeId>> {
        Ok(match self {
            NodeAccess::BoundVar(v) => match row.get(v) {
                Some(Value::Node(n)) => vec![*n],
                Some(Value::Null) | None => Vec::new(),
                Some(other) => {
                    return Err(CypherError::type_err(format!(
                        "variable '{v}' is bound to {}, expected a node",
                        other.type_name()
                    )))
                }
            },
            NodeAccess::Transition(l) => {
                let mut ids = nodes_from_value(l, row.get(l).unwrap_or(&Value::Null))?;
                // A label restricts to a set: a node listed twice starts
                // one match. The trigger engine's lists are ascending.
                if !ids.windows(2).all(|w| w[0] < w[1]) {
                    let mut seen = IdHashSet::default();
                    ids.retain(|id| seen.insert(*id));
                }
                ids
            }
            NodeAccess::Empty => Vec::new(),
            NodeAccess::Index { label, access } => access
                .ids(ctx, IndexScope::Label(label))
                .unwrap_or_else(|| ctx.view.nodes_with_label(label)),
            NodeAccess::LabelScan { labels } => {
                // Enumerate the smallest extent, filter by membership in
                // the rest (`(:A:B)` must not scan every `A` when `B` is
                // far more selective).
                let mut ids = ctx.view.nodes_with_label(&labels[0]);
                ids.retain(|id| {
                    let rec = ctx.view.node(*id);
                    rec.is_some_and(|r| labels[1..].iter().all(|l| r.has_label(l)))
                });
                ids
            }
            NodeAccess::AllNodes => ctx.view.all_node_ids(),
            NodeAccess::BoundRel(v) => match row.get(v) {
                Some(Value::Rel(r)) => endpoints(ctx, path, vec![*r]),
                _ => Vec::new(),
            },
            NodeAccess::RelScan(types) => {
                let ids = |(t, probe): &(String, Option<IndexAccess>)| {
                    probe
                        .as_ref()
                        .and_then(|access| access.ids(ctx, IndexScope::RelType(t)))
                        .unwrap_or_else(|| ctx.view.rels_with_type(t))
                };
                endpoints(ctx, path, types.iter().flat_map(ids).collect())
            }
        })
    }
}

/// The endpoint(s) of `rels` that `path` — whose first segment they
/// match — starts from, ascending.
fn endpoints(ctx: &EvalCtx<'_>, path: &PathPattern, rels: Vec<RelId>) -> Vec<NodeId> {
    let dir = path.segments.first().map(|(rp, _)| rp.direction);
    let mut out: Vec<NodeId> = Vec::with_capacity(rels.len());
    for (s, d) in rels
        .into_iter()
        .filter_map(|r| ctx.view.rel(r))
        .map(|r| (r.src, r.dst))
    {
        match dir {
            Some(Direction::Out) => out.push(s),
            Some(Direction::In) => out.push(d),
            _ => out.extend([s, d]),
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Choose the access path of one node position, **count-only** — the only
/// place a node position's access is decided. In order of preference:
///
/// 1. a **bound variable** (single candidate);
/// 2. a **transition-variable label** (`NEW`, `NEWNODES`, …) restricting
///    candidates to the bound item(s);
/// 3. the cheapest of — the most selective **index probe**
///    ([`Sargs::best_probe`] over every label's definitions: equality from
///    inline `{key: value}` maps and `WHERE` conjuncts, ordered ranges,
///    prefixes), the **intersection of the label extents**, or a **full
///    scan** — by estimated cardinality.
///
/// `bound` names what will be bound when the position is matched although
/// `row` does not hold it yet: the variables of earlier-joined paths of
/// the same `MATCH`. The estimate additionally credits equality conjuncts
/// whose operand a later path binds with their index's average bucket, so
/// join ordering sees them; the access itself can only use what `row`
/// evaluates.
pub(crate) fn choose_node_access(
    ctx: &EvalCtx<'_>,
    row: &Row,
    np: &NodePattern,
    pushed: &Pushdowns,
    bound: &HashSet<String>,
) -> (NodeAccess, usize) {
    if let Some(v) = &np.var {
        if row.contains(v) || bound.contains(v) {
            return (NodeAccess::BoundVar(v.clone()), 1);
        }
    }
    for l in &np.labels {
        let items = match row.get(l) {
            Some(Value::List(items)) => items.len(),
            Some(_) => 1,
            None if bound.contains(l) => 1, // bound by an earlier path
            None => continue,
        };
        return (NodeAccess::Transition(l.clone()), items);
    }
    let sargs = Sargs::eval(ctx, row, np.var.as_ref(), &np.props, pushed);
    if sargs.never {
        return (NodeAccess::Empty, 0);
    }
    let mut index: Option<(NodeAccess, usize)> = None;
    let mut deferred_est: Option<usize> = None;
    for label in &np.labels {
        let scope = IndexScope::Label(label);
        if let Some((access, est)) = sargs.best_probe(ctx, scope) {
            if index.as_ref().is_none_or(|(_, b)| est < *b) {
                let label = label.clone();
                index = Some((NodeAccess::Index { label, access }, est));
            }
        }
        if let Some(d) = sargs.deferred_estimate(ctx, scope) {
            deferred_est = Some(deferred_est.map_or(d, |b| b.min(d)));
        }
    }
    let cardinality = |l: &String| ctx.view.label_cardinality(l);
    let (access, est) = match (index, np.labels.iter().map(cardinality).min()) {
        (Some((access, est)), Some(lc)) if est <= lc => (access, est),
        (Some((access, est)), None) => (access, est),
        (_, Some(lc)) => {
            let mut labels = np.labels.clone();
            labels.sort_by_key(cardinality); // stable: pattern order on ties
            (NodeAccess::LabelScan { labels }, lc)
        }
        (None, None) => (NodeAccess::AllNodes, ctx.view.node_count_estimate().max(1)),
    };
    (access, deferred_est.map_or(est, |d| est.min(d)))
}

/// Choose how a single-hop relationship pattern would seed the path it
/// starts, **count-only** — the only place a relationship seed is decided:
/// the pre-bound relationship variable, or per type the better of a
/// relationship-index probe and the type extent. `None` = unusable as a
/// seed (variable-length; untyped and unbound). `bound` as for
/// [`choose_node_access`].
pub(crate) fn choose_rel_seed(
    ctx: &EvalCtx<'_>,
    row: &Row,
    rp: &RelPattern,
    pushed: &Pushdowns,
    bound: &HashSet<String>,
) -> Option<(NodeAccess, usize)> {
    if rp.hops.is_some() {
        return None;
    }
    if let Some(v) = &rp.var {
        if row.contains(v) || bound.contains(v) {
            return Some((NodeAccess::BoundRel(v.clone()), 1));
        }
    }
    if rp.types.is_empty() {
        return None;
    }
    let sargs = Sargs::eval(ctx, row, rp.var.as_ref(), &rp.props, pushed);
    if sargs.never {
        return Some((NodeAccess::Empty, 0));
    }
    let mut total = 0usize;
    let mut types = Vec::with_capacity(rp.types.len());
    for t in &rp.types {
        let scope = IndexScope::RelType(t);
        let mut est = ctx.view.rel_type_cardinality(t);
        let probe = sargs.best_probe(ctx, scope).map(|(access, n)| {
            est = est.min(n);
            access
        });
        if let Some(d) = sargs.deferred_estimate(ctx, scope) {
            est = est.min(d);
        }
        total = total.saturating_add(est);
        types.push((t.clone(), probe));
    }
    Some((NodeAccess::RelScan(types), total))
}

/// The seed of a path whose start position chose `node`: the start
/// position's own access, unless the first segment's relationship (asked
/// for only when the node side leaves more than one candidate) is
/// estimated **strictly** smaller — then its endpoints.
pub(crate) fn choose_seed(
    node: (NodeAccess, usize),
    first_rel: impl FnOnce() -> Option<(NodeAccess, usize)>,
) -> (NodeAccess, usize) {
    if node.1 <= 1 {
        return node;
    }
    match first_rel() {
        Some(rel) if rel.1 < node.1 => rel,
        _ => node,
    }
}

// ---------------------------------------------------------------------
// Join-output cardinality from degree statistics
// ---------------------------------------------------------------------

/// Expected output rows **per input row** of the hop `rp`, walked in
/// direction `dir` out of `src` — the only fanout estimate: the join-order
/// planner costs anchors with it and `EXPLAIN` reads the result. It is
/// the average degree `edges / |label|` from the per-(label, rel-type,
/// direction) degree statistics, minimized over the source's labels (all
/// labels must hold) and summed over the hop's types (any type matches).
/// Both numerator and denominator are exact at every instant (pg-graph
/// maintains them through every mutation and undo path), so a
/// whole-extent expansion estimate is exact; filtered sources inherit
/// only the seed estimate's error.
///
/// Labels bound in `row` or by an earlier join path (`bound`) are
/// transition variables, not stored labels, and contribute no statistic;
/// an unlabeled source borrows the labels `hints` records for its
/// variable. `None` = no statistic applies (variable-length, untyped, no
/// stored label) and the hop multiplies by 1 — the conservative "don't
/// know" fanout.
pub(crate) fn hop_fanout(
    ctx: &EvalCtx<'_>,
    row: &Row,
    src: &NodePattern,
    rp: &RelPattern,
    dir: Direction,
    bound: &HashSet<String>,
    hints: &HashMap<String, Vec<String>>,
) -> Option<f64> {
    if rp.hops.is_some() || rp.types.is_empty() {
        return None;
    }
    let labels = if src.labels.is_empty() {
        hints.get(src.var.as_ref()?)?
    } else {
        &src.labels
    };
    let stored = |l: &&String| row.get(l).is_none() && !bound.contains(l.as_str());
    let mut best: Option<f64> = None;
    for label in labels.iter().filter(stored) {
        let card = ctx.view.label_cardinality(label);
        let mut edges = 0usize;
        for t in &rp.types {
            edges += ctx.view.degree_edge_count(label, t, dir)?;
        }
        let avg = if card == 0 {
            0.0
        } else {
            edges as f64 / card as f64
        };
        if best.is_none_or(|b| avg < b) {
            best = Some(avg);
        }
    }
    best
}

/// One hop of a planned path: its estimated fanout and the cumulative
/// expected rows after the hop.
#[derive(Debug, Clone)]
pub struct PhysicalHop {
    /// Expected output rows per input row; `None` = no statistic applies.
    pub fanout: Option<f64>,
    /// Expected rows after this hop.
    pub est_rows: f64,
}

/// One planned path — what the join-order planner decided and what the
/// matchers run: the re-rooted path, the access that seeds its start
/// position, and the estimates the decision was made with.
#[derive(Debug, Clone)]
pub struct PhysicalPathPlan {
    /// The path as matched: from the chosen anchor outwards.
    pub path: PathPattern,
    pub seed: NodeAccess,
    pub seed_est: usize,
    /// One entry per segment of `path`.
    pub hops: Vec<PhysicalHop>,
    /// `seed` is provisional: choosing it read a name that only an
    /// earlier-joined path of the same `MATCH` binds, so the matcher
    /// chooses again — through the same functions — against each row
    /// those paths produce.
    pub(crate) deferred: bool,
    /// `path` walks the text's path backwards from an anchor past its
    /// start (`reroot_path`'s reversed prefix), so a variable-length
    /// segment binds its trail reversed, in the text's order.
    pub(crate) reversed: bool,
}

impl PhysicalPathPlan {
    pub(crate) fn new(
        path: PathPattern,
        (seed, seed_est): (NodeAccess, usize),
        deferred: bool,
        fanouts: impl Iterator<Item = Option<f64>>,
    ) -> Self {
        let hop = |fanout| PhysicalHop {
            fanout,
            est_rows: 0.0,
        };
        let mut plan = PhysicalPathPlan {
            path,
            seed,
            seed_est,
            hops: fanouts.map(hop).collect(),
            deferred,
            reversed: false,
        };
        plan.accumulate();
        plan
    }

    /// Join-output cardinality: the running product
    /// `seed_est × fanout₁ × fanout₂ × …` ("don't know" multiplies by 1).
    fn accumulate(&mut self) {
        let mut rows = self.seed_est as f64;
        for hop in &mut self.hops {
            rows *= hop.fanout.unwrap_or(1.0);
            hop.est_rows = rows;
        }
    }

    /// Expected rows after the whole path.
    pub fn est_rows(&self) -> f64 {
        self.hops
            .last()
            .map(|h| h.est_rows)
            .unwrap_or(self.seed_est as f64)
    }

    /// Re-estimate the hops that leave an unlabeled variable under the
    /// labels `hints` records for it (its binder's declared labels). Join ordering
    /// never sees hints; they refine only the estimates reported
    /// afterwards.
    pub(crate) fn apply_hints(&mut self, ctx: &EvalCtx<'_>, hints: &HashMap<String, Vec<String>>) {
        if hints.is_empty() {
            return;
        }
        let none = HashSet::new();
        let mut src = &self.path.start;
        for (hop, (rp, dst)) in self.hops.iter_mut().zip(&self.path.segments) {
            if hop.fanout.is_none() && src.labels.is_empty() {
                hop.fanout = hop_fanout(ctx, &Row::new(), src, rp, rp.direction, &none, hints);
            }
            src = dst;
        }
        self.accumulate();
    }
}
