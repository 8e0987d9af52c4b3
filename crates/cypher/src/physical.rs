//! Physical planning: access paths **as data** (planner v4).
//!
//! The access-path decision is split from its execution: `Sargs`
//! evaluates a pattern variable's search arguments once, chooses the most
//! selective index probe **count-only** and returns it as an
//! [`IndexAccess`] value — plain data naming the definition, the equality
//! prefix and the trailing bound; only a chosen probe is ever materialized
//! into a candidate vector. Node patterns, relationship seeds and per-hop
//! expansion all go through that one chooser (same probes, same
//! tie-breaks), so `EXPLAIN` and the batched executor inspect the decision
//! ([`NodeAccess`]) without materializing anything.
//!
//! **Join-output cardinality** (planner v4): [`expand_fanout`] estimates
//! the expected number of output rows per input row of a hop from the
//! per-(label, rel-type, direction) degree statistics maintained by
//! pg-graph ([`pg_graph::GraphView::degree_edge_count`]): the average
//! degree `edges / |label|` is exact at every instant, so a whole-extent
//! expansion estimate is exact and filtered expansions inherit only the
//! access path's estimation error. The join-order planner feeds these
//! fanouts into path costs (anchor cost + cumulative expected rows per
//! hop), and `EXPLAIN` prints estimated rows per operator next to the
//! actual rows observed during execution.

use crate::ast::{BinOp, Expr, NodePattern, PathPattern};
use crate::expr::{eval, EvalCtx};
use crate::row::Row;
use pg_graph::{CompositeTrailing, Direction, IndexProbe, IndexScope, ProbeMode, Value};
use std::collections::HashMap;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

use crate::pattern::Pushdowns;

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
        match build_intervals(ctx, row, &preds.ranges) {
            Intervals::Never => out.never = true,
            Intervals::Bounds(b) => out.intervals = b,
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

    /// The best count-only cardinality estimate `scope`'s indexes give
    /// for these arguments: [`Sargs::best_probe`], plus — for equality
    /// conjuncts whose operand is bound by a later join path — the
    /// average equality bucket `keyed_total / keyed_distinct` of the
    /// key's single-key index.
    pub(crate) fn estimate(&self, ctx: &EvalCtx<'_>, scope: IndexScope<'_>) -> Option<usize> {
        if self.never {
            return Some(0);
        }
        let mut best = self.best_probe(ctx, scope).map(|(_, est)| est);
        for key in &self.deferred_eqs {
            let avg = ctx
                .view
                .index_stats(scope, std::slice::from_ref(key))
                .and_then(|st| st.keyed_total.checked_div(st.keyed_distinct));
            if let Some(avg) = avg {
                best = Some(best.map_or(avg.max(1), |b| b.min(avg.max(1))));
            }
        }
        best
    }
}

/// The tightest closed intervals derivable from a variable's `<`/`<=`/
/// `>`/`>=` conjuncts, per property key.
enum Intervals {
    /// Some conjunct can never be truthy (NULL/NaN operand) — the
    /// candidate set is definitively empty.
    Never,
    /// Per-key `(lower, upper)` bounds (possibly unbounded on one side).
    Bounds(HashMap<String, (Bound<Value>, Bound<Value>)>),
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

/// Combine a variable's ordering conjuncts into per-key intervals. A NULL
/// or NaN operand makes its conjunct untruthy for every row
/// ([`Intervals::Never`]); an operand that cannot be evaluated yet (it
/// references a variable bound later) merely skips the conjunct — the
/// predicate itself is still enforced by the `WHERE` evaluation.
fn build_intervals(ctx: &EvalCtx<'_>, row: &Row, ranges: &[(String, BinOp, Expr)]) -> Intervals {
    let mut intervals: HashMap<String, (Bound<Value>, Bound<Value>)> = HashMap::new();
    for (key, op, expr) in ranges {
        let Ok(value) = eval(ctx, row, expr) else {
            continue;
        };
        if value.is_null() || matches!(&value, Value::Float(f) if f.is_nan()) {
            return Intervals::Never;
        }
        let entry = intervals
            .entry(key.clone())
            .or_insert((Bound::Unbounded, Bound::Unbounded));
        match op {
            BinOp::Gt | BinOp::Ge => tighten(&mut entry.0, value, *op == BinOp::Ge, true),
            BinOp::Lt | BinOp::Le => tighten(&mut entry.1, value, *op == BinOp::Le, false),
            _ => {}
        }
    }
    Intervals::Bounds(intervals)
}

// ---------------------------------------------------------------------
// Node access paths as data
// ---------------------------------------------------------------------

/// A node pattern's chosen access path — the physical half of planner v4,
/// inspectable by `EXPLAIN` and executable by the matcher.
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
}

impl fmt::Display for NodeAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeAccess::BoundVar(v) => write!(f, "BoundVar({v})"),
            NodeAccess::Transition(l) => write!(f, "Transition({l})"),
            NodeAccess::Empty => write!(f, "Empty"),
            NodeAccess::Index { label, access } => match (&access.columns[..], &access.trailing) {
                ([key], TrailingOwned::None) => write!(f, "IndexEq({label}.{key})"),
                ([key], TrailingOwned::Range(..)) => write!(f, "IndexRange({label}.{key})"),
                ([key], TrailingOwned::Prefix(_)) => write!(f, "IndexPrefix({label}.{key})"),
                (columns, _) => write!(f, "CompositeProbe({label}[{}])", columns.join(",")),
            },
            NodeAccess::LabelScan { labels } => write!(f, "LabelScan({})", labels.join("&")),
            NodeAccess::AllNodes => write!(f, "AllNodes"),
        }
    }
}

/// The best index-backed access path for a node pattern, chosen **count-
/// only** ([`Sargs::best_probe`]) over every label's index definitions.
///
/// Returns `Some((access, estimate))` when some index answered —
/// [`NodeAccess::Empty`] with estimate 0 when a pushed conjunct proves the
/// candidate set empty — and `None` when no index path applies.
pub(crate) fn choose_index_access(
    ctx: &EvalCtx<'_>,
    row: &Row,
    np: &NodePattern,
    pushed: &Pushdowns,
) -> Option<(NodeAccess, usize)> {
    let sargs = Sargs::eval(ctx, row, np.var.as_ref(), &np.props, pushed);
    if sargs.never {
        return Some((NodeAccess::Empty, 0));
    }
    let mut best: Option<(NodeAccess, usize)> = None;
    for label in &np.labels {
        if let Some((access, est)) = sargs.best_probe(ctx, IndexScope::Label(label)) {
            if best.as_ref().is_none_or(|(_, b)| est < *b) {
                let label = label.clone();
                best = Some((NodeAccess::Index { label, access }, est));
            }
        }
    }
    best
}

/// The fully count-only access decision for a node pattern — what
/// [`crate::pattern`]'s `node_candidates` will pick, as data, with its
/// cardinality estimate. Used by `EXPLAIN` and by the batched executor's
/// seed stage; never materializes a candidate vector.
pub(crate) fn plan_node_access(
    ctx: &EvalCtx<'_>,
    row: &Row,
    np: &NodePattern,
    pushed: &Pushdowns,
) -> (NodeAccess, usize) {
    if let Some(v) = &np.var {
        if row.contains(v) {
            return (NodeAccess::BoundVar(v.clone()), 1);
        }
    }
    for l in &np.labels {
        if let Some(v) = row.get(l) {
            let n = match v {
                Value::List(items) => items.len(),
                _ => 1,
            };
            return (NodeAccess::Transition(l.clone()), n);
        }
    }
    let best_index = choose_index_access(ctx, row, np, pushed);
    let mut label_cards: Vec<(&String, usize)> = np
        .labels
        .iter()
        .map(|l| (l, ctx.view.label_cardinality(l)))
        .collect();
    label_cards.sort_by_key(|(_, c)| *c);
    match (best_index, label_cards.first().map(|(_, c)| *c)) {
        (Some((acc, est)), Some(lc)) if est <= lc => (acc, est),
        (Some((acc, est)), None) => (acc, est),
        (_, Some(lc)) => (
            NodeAccess::LabelScan {
                labels: label_cards.iter().map(|(l, _)| (*l).clone()).collect(),
            },
            lc,
        ),
        (None, None) => (NodeAccess::AllNodes, ctx.view.node_count_estimate().max(1)),
    }
}

// ---------------------------------------------------------------------
// Intra-query parallelism decision (morsel-driven execution)
// ---------------------------------------------------------------------

/// Seeds per morsel. Each morsel is one `run_group` call: large enough
/// that the per-morsel overhead (recomputing the shared seed-candidate
/// vector, a fresh memo table) amortizes, small enough that a skewed
/// group still splits into many work units for the queue to balance.
pub const MORSEL_SIZE: usize = 64;

/// Minimum **estimated join-output rows** of a plan-equal seed group
/// before it morselizes. Below this, thread spawn + snapshot pinning +
/// per-morsel re-derivation costs more than the matching itself; the
/// estimate comes from the same degree-statistics fanout model the join
/// planner uses, so the decision is inspectable via `EXPLAIN`.
pub const PARALLEL_ROW_THRESHOLD: f64 = 4096.0;

/// Why a `MATCH` runs serially — the documented decline catalog of the
/// morsel-driven executor, rendered by `EXPLAIN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelDecline {
    /// A variable-length segment is in the plan: its DFS interleaves
    /// depths, so the group already falls back to the reference matcher
    /// per seed and has no batch to split.
    VarLength,
    /// A single seed row — no seed axis to partition along.
    SingletonSeed,
    /// Estimated join-output rows below [`PARALLEL_ROW_THRESHOLD`].
    BelowThreshold,
    /// The view cannot pin a `Send + Sync` state (overlay views:
    /// pre-state reconstruction, trigger condition evaluation).
    NoParallelView,
}

impl ParallelDecline {
    /// Stable kebab-case rule name, for `EXPLAIN` and logs.
    pub fn rule(&self) -> &'static str {
        match self {
            ParallelDecline::VarLength => "var-length",
            ParallelDecline::SingletonSeed => "singleton-seed",
            ParallelDecline::BelowThreshold => "below-threshold",
            ParallelDecline::NoParallelView => "no-parallel-view",
        }
    }
}

impl fmt::Display for ParallelDecline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.rule())
    }
}

/// The parallelism decision for one plan-equal seed group (or, in
/// `EXPLAIN`, for a whole `MATCH` clause planned from estimates).
#[derive(Debug, Clone, PartialEq)]
pub enum ParallelPlan {
    /// Morselize: split the group into `morsels` seed chunks of
    /// [`MORSEL_SIZE`] and drain them through a shared work queue with
    /// `degree` workers. `degree == 1` still morselizes (same chunk
    /// boundaries, run inline on the caller's thread), so row order
    /// *and* index-probe totals are identical for every thread count.
    Parallel {
        degree: usize,
        morsels: usize,
        est_rows: f64,
    },
    /// Run the group through the ordinary serial batch path.
    Serial(ParallelDecline),
}

/// Decide whether a plan-equal seed group morselizes.
///
/// The morselize-or-not half of the decision is **thread-count
/// independent** — it looks only at the group shape and the cost
/// estimate — so the set of morsel boundaries (and therefore the result
/// rows, their order, and the index-probe totals) cannot vary with
/// `PG_THREADS` or the machine. `threads` (`None` = the process-wide
/// ceiling: `PG_THREADS`, else the machine's parallelism) only clamps the
/// worker `degree`, which affects scheduling alone, and is resolved only
/// here, after every decline rule has passed — a serial decision reads
/// neither the environment nor the machine. The degree also never
/// exceeds the morsel count (idle workers are pure overhead) or the
/// cost-derived width `est_rows / PARALLEL_ROW_THRESHOLD` (one
/// threshold's worth of estimated output per worker).
pub fn plan_parallelism(
    group_len: usize,
    var_length: bool,
    est_rows: f64,
    pinnable: bool,
    threads: Option<usize>,
    threshold: f64,
) -> ParallelPlan {
    if var_length {
        return ParallelPlan::Serial(ParallelDecline::VarLength);
    }
    if group_len <= 1 {
        return ParallelPlan::Serial(ParallelDecline::SingletonSeed);
    }
    // NaN estimates fall through to the decline: only a comparison that
    // positively says "at or above the threshold" proceeds.
    let at_or_above = matches!(
        est_rows.partial_cmp(&threshold),
        Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
    );
    if !at_or_above {
        return ParallelPlan::Serial(ParallelDecline::BelowThreshold);
    }
    if !pinnable {
        return ParallelPlan::Serial(ParallelDecline::NoParallelView);
    }
    let morsels = group_len.div_ceil(MORSEL_SIZE);
    let cost_width = (est_rows / threshold) as usize;
    let degree = cost_width
        .clamp(1, crate::exec::thread_limit(threads))
        .min(morsels);
    ParallelPlan::Parallel {
        degree,
        morsels,
        est_rows,
    }
}

// ---------------------------------------------------------------------
// Join-output cardinality from degree statistics
// ---------------------------------------------------------------------

/// Expected output rows **per input row** of a hop expansion, from the
/// per-(label, rel-type, direction) degree statistics: the average degree
/// `edges / |label|` of the hop's *source* pattern, minimized over the
/// source's labels (all labels must hold) and summed over the hop's types
/// (any type matches). `None` when the source has no stored label or the
/// hop no type — no statistic applies and the planner falls back to
/// access-path-only costing for that hop.
///
/// Both numerator and denominator are exact at every instant (pg-graph
/// maintains them through every mutation and undo path), so a
/// whole-extent expansion estimate is exact; filtered sources inherit
/// only the seed estimate's error.
pub fn expand_fanout(
    ctx: &EvalCtx<'_>,
    src_labels: &[String],
    rel_types: &[String],
    dir: Direction,
) -> Option<f64> {
    if src_labels.is_empty() || rel_types.is_empty() {
        return None;
    }
    let mut best: Option<f64> = None;
    for label in src_labels {
        let card = ctx.view.label_cardinality(label);
        let mut edges = 0usize;
        for t in rel_types {
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

/// One hop of a physically-planned path: its estimated fanout and the
/// cumulative expected rows after the hop.
#[derive(Debug, Clone)]
pub struct PhysicalHop {
    /// `-[:T]->`-style rendering of the hop (direction + types + target).
    pub repr: String,
    /// Expected output rows per input row; `None` = no statistic applies.
    pub fanout: Option<f64>,
    /// Expected rows after this hop.
    pub est_rows: f64,
}

/// One planned path: the seed access path plus its hops, with estimates.
#[derive(Debug, Clone)]
pub struct PhysicalPathPlan {
    /// The variable (or `_`) of the seed position.
    pub seed_var: String,
    pub seed: NodeAccess,
    pub seed_est: usize,
    pub hops: Vec<PhysicalHop>,
}

impl PhysicalPathPlan {
    /// Expected rows after the whole path.
    pub fn est_rows(&self) -> f64 {
        self.hops
            .last()
            .map(|h| h.est_rows)
            .unwrap_or(self.seed_est as f64)
    }
}

/// Physically annotate one already-ordered path (as produced by the join-
/// order planner): the seed access decision plus per-hop fanout estimates.
pub(crate) fn plan_path(
    ctx: &EvalCtx<'_>,
    row: &Row,
    path: &PathPattern,
    pushed: &Pushdowns,
    label_hints: &HashMap<String, Vec<String>>,
) -> PhysicalPathPlan {
    let (seed, seed_est) = plan_node_access(ctx, row, &path.start, pushed);
    let mut hops = Vec::with_capacity(path.segments.len());
    let mut rows = seed_est as f64;
    let mut src = &path.start;
    for (rp, np) in &path.segments {
        // An unlabeled source position (typically a variable bound by an
        // earlier clause) falls back to the label its binder declared.
        let src_labels: &[String] = if src.labels.is_empty() {
            src.var
                .as_ref()
                .and_then(|v| label_hints.get(v))
                .map(|l| l.as_slice())
                .unwrap_or(&[])
        } else {
            &src.labels
        };
        let fanout = if rp.hops.is_some() {
            None // variable-length: no per-hop statistic
        } else {
            expand_fanout(ctx, src_labels, &rp.types, rp.direction)
        };
        rows *= fanout.unwrap_or(1.0);
        let arrow = match rp.direction {
            Direction::Out => ("-", "->"),
            Direction::In => ("<-", "-"),
            Direction::Both => ("-", "-"),
        };
        let types = if rp.types.is_empty() {
            String::new()
        } else {
            format!(":{}", rp.types.join("|"))
        };
        let target = np.var.clone().unwrap_or_else(|| "_".into());
        let tlabels = if np.labels.is_empty() {
            String::new()
        } else {
            format!(":{}", np.labels.join(":"))
        };
        hops.push(PhysicalHop {
            repr: format!("{}[{}]{}({}{})", arrow.0, types, arrow.1, target, tlabels),
            fanout,
            est_rows: rows,
        });
        src = np;
    }
    PhysicalPathPlan {
        seed_var: path.start.var.clone().unwrap_or_else(|| "_".into()),
        seed,
        seed_est,
        hops,
    }
}
