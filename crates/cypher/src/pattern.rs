//! Pattern-matching primitives and the cost-based candidate planner (v2).
//!
//! A join over path patterns with Cypher's relationship-uniqueness
//! semantics (a relationship may be traversed at most once per `MATCH`
//! clause), run by the stage pipeline of [`crate::batch`].
//!
//! **Transition-variable candidates** (PG-Triggers §6.2): a label position
//! whose name is bound in the current row to a node, a relationship, or a
//! list of them restricts the candidate set to those items instead of being
//! treated as a stored label. This is what makes the paper's patterns
//! `MATCH (pn:NEWNODES)-[:TreatedAt]-(h)` and `MATCH (pn:NEW)-…` work: the
//! trigger engine binds `NEWNODES`/`NEW` in the seed row.
//!
//! **Planner v3** (`plan_patterns`): before matching, each `MATCH`'s
//! pattern list is planned — once for each run of consecutive seed rows
//! that bind the same names and hold equal values for those it reads
//! (`plan_reads`) —
//!
//! 1. `WHERE` conjuncts of shape `var.key = e`, `var.key </<=/>/>= e` and
//!    `var.key STARTS WITH e` are pushed down into candidate selection,
//!    served by equality, ordered **range**, and **prefix** index probes
//!    ([`pg_graph::GraphView::probe`]);
//! 2. each linear path is **anchored at its most selective node position**
//!    (estimated from index/extent cardinalities) by reversing the path or
//!    splitting it at a named interior node, instead of always starting at
//!    the lexical start;
//! 3. whole paths are **joined in ascending cost order**, greedily re-
//!    costing as variables become bound by earlier paths;
//! 4. a path whose cheapest access is a selective **relationship** (a
//!    pre-bound rel variable, a small type extent, or a relationship-
//!    property index hit) seeds its start candidates from the relationship
//!    extent's endpoints rather than from a node scan;
//! 5. relationship range/prefix pushdowns prune **per-hop expansion**: a
//!    hop whose pushed predicate is estimated more selective than the
//!    adjacency list is served from the relationship type's index, and
//!    every enumerated relationship is pre-filtered against the evaluated
//!    predicates.
//!
//! **The planned path is what runs.** `plan_patterns` returns one
//! [`PhysicalPathPlan`] per re-rooted path, carrying the seed access its
//! anchor was costed with (see [`crate::physical`]); the one matcher, the
//! stage pipeline of [`crate::batch`], seeds a path by materializing that
//! value (`start_candidates`) and expands it hop by hop with
//! `hop_candidates` and `NodeTest` from here.
//!
//! Planning itself is **count-only** (v3): all cost estimates go through
//! [`pg_graph::ProbeMode::Count`] probes (exact equality counts,
//! histogram-backed range estimates) and
//! [`pg_graph::GraphView::index_stats`] (the average equality bucket, for
//! equality conjuncts whose operand is bound by another join path) — no
//! candidate vector is materialized until an access path has been
//! *chosen*. Node and relationship positions share one probe chooser
//! (`physical::Sargs`).

use crate::ast::{BinOp, Expr, NodePattern, PathPattern, RelPattern};
use crate::batch::match_patterns_batch;
use crate::error::{CypherError, Result};
use crate::exec::{Flow, MatchMode};
use crate::expr::{eval, EvalCtx};
use crate::physical::{
    choose_node_access, choose_rel_seed, choose_seed, hop_fanout, NodeAccess, PhysicalPathPlan,
    Sargs,
};
use crate::row::Row;
use pg_graph::{Direction, Hop, IndexScope, NodeId, PropertyMap, RelId, RelRecord, Value};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::Bound;

/// Predicates pushed down from a `WHERE` clause into candidate planning,
/// per pattern variable. Pushing a conjunct down is always sound: the full
/// `WHERE` is still evaluated on every surviving row, and a row on which a
/// conjunct is false or NULL can never make the conjunction truthy.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarPredicates {
    /// `var.key = e` conjuncts (either orientation).
    pub(crate) eqs: Vec<(String, Expr)>,
    /// `var.key <op> e` conjuncts, normalized so the property is on the
    /// left (`e < var.key` arrives as `var.key > e`).
    pub(crate) ranges: Vec<(String, BinOp, Expr)>,
    /// `var.key STARTS WITH e` conjuncts.
    pub(crate) prefixes: Vec<(String, Expr)>,
}

pub(crate) type Pushdowns = HashMap<String, VarPredicates>;

/// How many traversed relationships a [`MatchState`] holds inline: no
/// `MATCH` clause of the paper's §6 triggers walks more than three.
const INLINE_RELS: usize = 4;

/// The relationships already used in this MATCH clause, in traversal
/// order: inline up to [`INLINE_RELS`], spilled to the heap beyond.
#[derive(Debug, Clone)]
pub(crate) enum UsedRels {
    Inline { len: u8, ids: [RelId; INLINE_RELS] },
    Spilled(Vec<RelId>),
}

impl UsedRels {
    fn as_slice(&self) -> &[RelId] {
        match self {
            UsedRels::Inline { len, ids } => &ids[..usize::from(*len)],
            UsedRels::Spilled(ids) => ids,
        }
    }

    pub(crate) fn contains(&self, rid: &RelId) -> bool {
        self.as_slice().contains(rid)
    }

    pub(crate) fn push(&mut self, rid: RelId) {
        match self {
            UsedRels::Inline { len, ids } if usize::from(*len) < INLINE_RELS => {
                ids[usize::from(*len)] = rid;
                *len += 1;
            }
            UsedRels::Inline { ids, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_RELS);
                spilled.extend_from_slice(ids);
                spilled.push(rid);
                *self = UsedRels::Spilled(spilled);
            }
            UsedRels::Spilled(ids) => ids.push(rid),
        }
    }
}

/// One in-progress match: the binding row plus relationships already used in
/// this MATCH clause. Copied once per candidate per hop, so a copy is one
/// allocation: the row's (see [`crate::row`]).
#[derive(Debug)]
pub(crate) struct MatchState {
    pub(crate) row: Row,
    pub(crate) used: UsedRels,
}

impl MatchState {
    pub(crate) fn new(row: Row) -> MatchState {
        let used = UsedRels::Inline {
            len: 0,
            ids: [RelId(0); INLINE_RELS],
        };
        MatchState { row, used }
    }

    /// A copy whose row has room for the variables the positions `binds`
    /// name, so the [`MatchState::bind`]s that follow never reallocate.
    pub(crate) fn fork(&self, binds: &[&Option<String>]) -> MatchState {
        MatchState {
            row: self
                .row
                .clone_with_room(binds.iter().filter(|v| v.is_some()).count()),
            used: self.used.clone(),
        }
    }

    /// Bind the pattern variable `var` (if the position names one) to
    /// `value`; a variable that is already bound must equal it (`eq3`).
    /// `false` rejects the state.
    pub(crate) fn bind(&mut self, var: Option<&String>, value: Value) -> bool {
        let Some(v) = var else {
            return true;
        };
        match self.row.get(v) {
            Some(bound) => bound.eq3(&value) == Some(true),
            None => {
                self.row.set(v, value);
                true
            }
        }
    }
}

/// Every match of a list of path patterns (as one joint MATCH clause)
/// against the view, starting from `seed`: the rows [`crate::batch`]'s
/// stage pipeline hands on.
pub fn match_patterns(
    ctx: &EvalCtx<'_>,
    seed: &Row,
    patterns: &[PathPattern],
    where_clause: Option<&Expr>,
) -> Result<Vec<Row>> {
    let pushed = extract_pushdowns(where_clause);
    let mut rows = Vec::new();
    let mut take = |_: usize, row: Row| -> Result<Flow> {
        rows.push(row);
        Ok(Flow::Continue(()))
    };
    let (seeds, mode) = (std::slice::from_ref(seed), MatchMode::Batched);
    // `take` never breaks.
    let _ = match_patterns_batch(ctx, seeds, patterns, where_clause, &pushed, mode, &mut take)?;
    Ok(rows)
}

/// The variable names a pattern list can bind (used by OPTIONAL MATCH to
/// null-bind on failure).
pub fn pattern_vars(patterns: &[PathPattern]) -> Vec<String> {
    let mut out: Vec<String> = patterns
        .iter()
        .flat_map(PathPattern::vars)
        .cloned()
        .collect();
    out.sort();
    out.dedup();
    out
}

// ---------------------------------------------------------------------
// Planner v2: join-order planning across a MATCH's pattern elements
// ---------------------------------------------------------------------

/// A conservative "don't know" cardinality for unestimatable positions.
const UNKNOWN_COST: usize = usize::MAX / 4;

/// Node position `i` of a path: 0 = `path.start`, i>0 = `segments[i-1].1`.
fn node_at(path: &PathPattern, i: usize) -> &NodePattern {
    match i.checked_sub(1) {
        None => &path.start,
        Some(seg) => &path.segments[seg].1,
    }
}

/// A relationship pattern as seen from its other endpoint.
fn reverse_rel(rp: &RelPattern) -> RelPattern {
    let mut out = rp.clone();
    out.direction = rp.direction.reverse();
    out
}

/// The path re-rooted at node position `anchor` (0 = lexical start):
/// the reversed prefix walked away from the anchor, then the suffix. Both
/// returned paths start at the anchor node pattern; the second is empty
/// (`None`) unless the anchor is interior.
fn reroot_path(path: &PathPattern, anchor: usize) -> (PathPattern, Option<PathPattern>) {
    let node_at = |i| node_at(path, i);
    if anchor == 0 {
        return (path.clone(), None);
    }
    // reversed prefix: anchor → anchor-1 → … → 0
    let left = PathPattern {
        start: node_at(anchor).clone(),
        segments: (0..anchor)
            .rev()
            .map(|j| (reverse_rel(&path.segments[j].0), node_at(j).clone()))
            .collect(),
    };
    if anchor == path.segments.len() {
        (left, None)
    } else {
        let right = PathPattern {
            start: node_at(anchor).clone(),
            segments: path.segments[anchor..].to_vec(),
        };
        (left, Some(right))
    }
}

/// One segment of a path as anchor costing sees it: its fanout walked
/// rightwards and leftwards, and how its relationship would seed an
/// adjacent anchor.
type CostedSegment = (Option<f64>, Option<f64>, Option<(NodeAccess, usize)>);

/// The cheapest way to anchor one path.
struct Anchor {
    /// Node position to start from (0 = lexical start).
    pos: usize,
    cost: usize,
    /// What seeds the path re-rooted at `pos`, and its estimate.
    seed: (NodeAccess, usize),
    segments: Vec<CostedSegment>,
}

/// Per-hop fanouts of the walk from position `pos`: the reversed prefix,
/// then the suffix.
fn walk_from(segments: &[CostedSegment], pos: usize) -> impl Iterator<Item = Option<f64>> + '_ {
    let (prefix, suffix) = segments.split_at(pos);
    let leftwards = prefix.iter().rev().map(|(_, rev, _)| *rev);
    leftwards.chain(suffix.iter().map(|(fwd, _, _)| *fwd))
}

/// The cheapest anchor position of a path. A position's **access** cost
/// is the best of its node access and (for single-hop segments adjacent to
/// it) the relationship extent that could seed it — a bound variable
/// enumerates nothing and costs 0. Its total cost adds the **join-output
/// cardinality** of walking the whole path from there (planner v4):
/// starting from the access estimate, each hop multiplies the running row
/// count by its expected fanout ([`hop_fanout`]) and the cumulative counts
/// of every hop are summed. The leftward (reversed-prefix) walk runs first
/// and the rightward suffix walk continues from its result, mirroring what
/// an interior anchor executes after [`reroot_path`]: the suffix half-path
/// runs once per row of the reversed prefix, so its rows multiply — an
/// additive model would systematically undercount interior splits with a
/// fat left side. Interior anchors require a named node (the two
/// half-paths join on the variable); unnamed interior positions are
/// skipped.
fn best_anchor(
    ctx: &EvalCtx<'_>,
    row: &Row,
    path: &PathPattern,
    pushed: &Pushdowns,
    bound: &HashSet<String>,
) -> Anchor {
    let k = path.segments.len();
    let node_at = |i| node_at(path, i);
    let usable = |i: usize| i == 0 || i == k || node_at(i).var.is_some();
    // Join ordering takes no label hints.
    let no_hints = HashMap::new();
    let mut segments: Vec<CostedSegment> = (0..k)
        .map(|j| {
            let rp = &path.segments[j].0;
            let fanout = |src: usize, dir: Direction| {
                hop_fanout(ctx, row, node_at(src), rp, dir, bound, &no_hints)
            };
            let rel = (usable(j) || usable(j + 1))
                .then(|| choose_rel_seed(ctx, row, rp, pushed, bound))
                .flatten();
            (
                fanout(j, rp.direction),
                fanout(j + 1, rp.direction.reverse()),
                rel,
            )
        })
        .collect();

    let mut best: Option<(usize, usize, (NodeAccess, usize))> = None;
    for i in (0..=k).filter(|&i| usable(i)) {
        let node = choose_node_access(ctx, row, node_at(i), pushed, bound);
        let mut access = match node.0 {
            NodeAccess::BoundVar(_) => 0,
            _ => node.1,
        };
        // a selective adjacent relationship can seed this anchor
        for (_, _, rel) in &segments[i.saturating_sub(1)..(i + 1).min(k)] {
            access = rel.as_ref().map_or(access, |(_, est)| access.min(*est));
        }
        let (mut walk, mut rows) = (0f64, access.max(1) as f64);
        for fanout in walk_from(&segments, i) {
            rows *= fanout.unwrap_or(1.0);
            walk += rows;
        }
        let cost = if walk.is_finite() && walk < UNKNOWN_COST as f64 {
            access.saturating_add(walk as usize).min(UNKNOWN_COST)
        } else {
            UNKNOWN_COST
        };
        if best.as_ref().is_none_or(|(_, b, _)| cost < *b) {
            best = Some((i, cost, node));
        }
    }
    let (pos, cost, node) = best.expect("position 0 is always usable");
    // The re-rooted path leaves `pos` leftwards when it can.
    let first_seg = pos.saturating_sub(1);
    Anchor {
        pos,
        cost,
        seed: choose_seed(node, || segments.get_mut(first_seg)?.2.take()),
        segments,
    }
}

/// Join-order planning for one `MATCH`'s pattern list: re-root each path at
/// its cheapest anchor and greedily order paths by estimated anchor cost,
/// re-costing as earlier paths bind variables. Each planned path carries
/// the seed access its anchor was costed with — the matchers materialize
/// it instead of choosing again. Pure re-planning — the set of result rows
/// is unchanged (pattern matching is a join and relationship uniqueness is
/// a symmetric constraint over the whole assignment); only the enumeration
/// order (and hence row order) may differ.
pub(crate) fn plan_patterns(
    ctx: &EvalCtx<'_>,
    seed: &Row,
    patterns: &[PathPattern],
    pushed: &Pushdowns,
) -> Vec<PhysicalPathPlan> {
    // What earlier-joined paths bind, on top of `seed`.
    let mut bound: HashSet<String> = HashSet::new();
    let mut remaining: Vec<&PathPattern> = patterns.iter().collect();
    let mut out = Vec::with_capacity(patterns.len());
    while !remaining.is_empty() {
        // pick the cheapest remaining path (stable on ties)
        let mut pick: Option<(usize, Anchor)> = None;
        for (slot, p) in remaining.iter().enumerate() {
            let anchor = best_anchor(ctx, seed, p, pushed, &bound);
            if pick.as_ref().is_none_or(|(_, b)| anchor.cost < b.cost) {
                pick = Some((slot, anchor));
            }
        }
        let (slot, anchor) = pick.expect("remaining is non-empty");
        let path = remaining.remove(slot);
        let (first, second) = reroot_path(path, anchor.pos);
        let fanouts = || walk_from(&anchor.segments, anchor.pos);
        let split = first.segments.len();
        // A seed chosen from a name only an earlier path binds (the
        // planning row does not hold its value) is chosen again per row.
        let deferred =
            !bound.is_empty() && seed_reads(&first, pushed).iter().any(|n| bound.contains(n));
        let second = second.map(|half| {
            let var = half.start.var.clone().expect("interior anchors are named");
            let joined = (NodeAccess::BoundVar(var), 1);
            PhysicalPathPlan::new(half, joined, false, fanouts().skip(split))
        });
        let prefix = fanouts().take(split);
        let mut first = PhysicalPathPlan::new(first, anchor.seed, deferred, prefix);
        first.reversed = anchor.pos > 0;
        out.push(first);
        out.extend(second);
        if !remaining.is_empty() {
            bound.extend(pattern_vars(std::slice::from_ref(path)));
        }
    }
    out
}

/// Free variables of every pushed-down operand of `var`.
fn pushed_expr_vars(var: Option<&String>, pushed: &Pushdowns, out: &mut Vec<String>) {
    let Some(p) = var.and_then(|v| pushed.get(v)) else {
        return;
    };
    let operands = p.eqs.iter().map(|(_, e)| e);
    let operands = operands.chain(p.ranges.iter().map(|(_, _, e)| e));
    for e in operands.chain(p.prefixes.iter().map(|(_, e)| e)) {
        e.collect_vars(out);
    }
}

/// The names whose bindings a [`NodeTest`] reads for `np`: its labels
/// (transition-variable check) and the free variables of its inline props.
pub(crate) fn node_reads(np: &NodePattern) -> Vec<String> {
    let mut names = np.labels.clone();
    for (_, e) in &np.props {
        e.collect_vars(&mut names);
    }
    names
}

/// The names whose bindings [`hop_candidates`] reads for `rel_pat`: the
/// relationship variable (pre-bound rel fast path) and the free variables
/// of its inline props and pushdown operands.
pub(crate) fn rel_reads(rel_pat: &RelPattern, pushed: &Pushdowns) -> Vec<String> {
    let mut names: Vec<String> = rel_pat.var.iter().cloned().collect();
    for (_, e) in &rel_pat.props {
        e.collect_vars(&mut names);
    }
    pushed_expr_vars(rel_pat.var.as_ref(), pushed, &mut names);
    names
}

/// The names whose bound *values* planning a pattern list reads: at every
/// position, its labels (a transition variable's list length is its
/// estimate) and the free variables of its inline props and pushed
/// operands. Of every other name it reads only whether it is bound.
pub(crate) fn plan_reads(patterns: &[PathPattern], pushed: &Pushdowns) -> Vec<String> {
    let mut names = Vec::new();
    for path in patterns {
        for np in std::iter::once(&path.start).chain(path.segments.iter().map(|(_, np)| np)) {
            names.extend(node_reads(np));
            pushed_expr_vars(np.var.as_ref(), pushed, &mut names);
        }
        for (rel_pat, _) in &path.segments {
            for (_, e) in &rel_pat.props {
                e.collect_vars(&mut names);
            }
            pushed_expr_vars(rel_pat.var.as_ref(), pushed, &mut names);
        }
    }
    names
}

/// The names whose bindings choosing a path's seed reads: the anchor
/// variable and its pushdowns, what checking the anchor reads, and what
/// the first segment's relationship reads (its extent may seed the anchor).
pub(crate) fn seed_reads(path: &PathPattern, pushed: &Pushdowns) -> Vec<String> {
    let mut names = node_reads(&path.start);
    names.extend(path.start.var.iter().cloned());
    pushed_expr_vars(path.start.var.as_ref(), pushed, &mut names);
    if let Some((rel_pat, _)) = path.segments.first() {
        names.extend(rel_reads(rel_pat, pushed));
    }
    names
}

/// The start candidates of a planned path for one binding row: the planned
/// seed, materialized. A deferred seed (see [`PhysicalPathPlan`]) is first
/// chosen again — by the planner's own functions — now that `row` binds
/// what planning could not evaluate.
pub(crate) fn start_candidates(
    ctx: &EvalCtx<'_>,
    row: &Row,
    plan: &PhysicalPathPlan,
    pushed: &Pushdowns,
) -> Result<Vec<NodeId>> {
    let path = &plan.path;
    if !plan.deferred {
        return plan.seed.candidates(ctx, row, path);
    }
    let none = HashSet::new();
    let node = choose_node_access(ctx, row, &path.start, pushed, &none);
    let first_rel = || choose_rel_seed(ctx, row, &path.segments.first()?.0, pushed, &none);
    choose_seed(node, first_rel).0.candidates(ctx, row, path)
}

/// Whether a concrete relationship satisfies the evaluated pushdowns
/// (direct predicate evaluation — used to prune expansion early; the full
/// `WHERE` is still evaluated on surviving rows).
fn rel_satisfies(rec: &RelRecord, pd: &Sargs) -> bool {
    use std::cmp::Ordering::{Greater, Less};
    let null = Value::Null;
    let prop = |key: &str| rec.props.get(key).unwrap_or(&null);
    // `have` lies on `side` of bound `b` (`Greater`: above a lower bound).
    let within = |have: &Value, b: &Bound<Value>, side| match b {
        Bound::Unbounded => true,
        Bound::Included(v) => have.cmp3(v).is_some_and(|o| o == side || o.is_eq()),
        Bound::Excluded(v) => have.cmp3(v) == Some(side),
    };
    let in_interval = |(key, (lo, hi)): (&String, &(Bound<Value>, Bound<Value>))| {
        let have = prop(key);
        within(have, lo, Greater) && within(have, hi, Less)
    };
    let prefixed =
        |(key, p): &(String, String)| matches!(prop(key), Value::Str(s) if s.starts_with(p));
    pd.eqs
        .iter()
        .all(|(key, want)| prop(key).eq3(want) == Some(true))
        && pd.intervals.iter().all(in_interval)
        && pd.prefixes.iter().all(prefixed)
}

/// Enumerate (relationship, other-end) pairs from `node` that satisfy the
/// relationship pattern (direction, types, properties, pre-bound rel var).
///
/// A hop reads only the runs of its types in the node's adjacency
/// ([`pg_graph::GraphView::hops`]; the whole list when untyped), whose
/// entries carry the other end: it opens a relationship record only to
/// test inline properties or pushed predicates, or to check a pre-bound
/// relationship. One directed list with nothing to test is handed on as
/// the view lent it. An undirected hop reads the out-lists, then the
/// in-lists without the self-loops the out-lists already hold.
///
/// Pushed-down range/prefix/equality predicates on the relationship
/// variable prune the expansion here (planner v3): when the best index
/// probe they allow is **estimated** (count probe) more selective than
/// the node's run of that type, the hop enumerates the probe's ids
/// instead; either way every candidate is pre-filtered against the
/// evaluated predicates rather than post-filtered by the final `WHERE`.
pub(crate) fn hop_candidates<'v>(
    ctx: &EvalCtx<'v>,
    row: &Row,
    node: NodeId,
    rel_pat: &RelPattern,
    pushed: &Pushdowns,
) -> Result<Cow<'v, [Hop]>> {
    // A pre-bound relationship variable fixes the candidate.
    let prebound = match rel_pat.var.as_ref().and_then(|v| row.get(v)) {
        Some(Value::Rel(rid)) => Some(*rid),
        _ => None,
    };
    // Pushed predicates apply per relationship only on unbound single hops
    // (a variable-length variable binds a list).
    let pd = (prebound.is_none() && rel_pat.hops.is_none())
        .then(|| Sargs::eval(ctx, row, rel_pat.var.as_ref(), &[], pushed))
        .filter(|pd| !pd.is_empty());
    if pd.as_ref().is_some_and(|p| p.never) {
        return Ok(Cow::Borrowed(&[]));
    }
    if let Some(rid) = prebound {
        return hops_by_record(ctx, row, node, rel_pat, None, &[rid]).map(Cow::Owned);
    }
    let dirs: &[Direction] = match rel_pat.direction {
        Direction::Both => &[Direction::Out, Direction::In],
        Direction::Out => &[Direction::Out],
        Direction::In => &[Direction::In],
    };
    let view = ctx.view;
    // Serve the hop from a relationship index when the pushed predicates
    // are estimated more selective than the node's run of the type; the
    // endpoint checks of `hops_by_record` restore the incidence
    // constraint. (No definitions — the overwhelmingly common case —
    // costs nothing on this per-hop path.)
    if let (Some(pd), [t]) = (&pd, &rel_pat.types[..]) {
        let scope = IndexScope::RelType(t);
        if let Some((access, est)) = pd.best_probe(ctx, scope) {
            let adjacent: usize = dirs
                .iter()
                .map(|&d| view.hops(node, d, Some(t)).len())
                .sum();
            if est < adjacent {
                if let Some(ids) = access.ids::<RelId>(ctx, scope) {
                    if ids.len() < adjacent {
                        let pd = Some(pd);
                        return hops_by_record(ctx, row, node, rel_pat, pd, &ids).map(Cow::Owned);
                    }
                }
            }
        }
    }
    // Without properties to test, a candidate needs no record.
    let direct = pd.is_none() && rel_pat.props.is_empty();
    let types = &rel_pat.types;
    if direct && dirs.len() == 1 && types.len() <= 1 {
        return Ok(view.hops(node, dirs[0], types.first().map(String::as_str)));
    }
    // Each direction's lists: the run of every type named once, or the
    // whole list when the hop is untyped.
    let distinct = types
        .iter()
        .enumerate()
        .filter(|&(i, t)| !types[..i].contains(t));
    let mut out = Vec::new();
    for &dir in dirs {
        let whole = types.is_empty().then(|| view.hops(node, dir, None));
        let runs = distinct.clone().map(|(_, t)| view.hops(node, dir, Some(t)));
        for list in whole.into_iter().chain(runs) {
            for &(rid, other) in list.iter() {
                // A self-loop is on both lists: it is taken from the out-list.
                if dir == Direction::In && dirs.len() == 2 && other == node {
                    continue;
                }
                if !direct {
                    let Some(rec) = view.rel(rid) else {
                        continue;
                    };
                    if pd.as_ref().is_some_and(|pd| !rel_satisfies(rec, pd))
                        || !props_match(ctx, row, &rec.props, &rel_pat.props)?
                    {
                        continue;
                    }
                }
                out.push((rid, other));
            }
        }
    }
    Ok(Cow::Owned(out))
}

/// The candidates among `ids` a hop from `node` can take, read from their
/// records: incident in the hop's direction (a self-loop once), of its
/// types, satisfying `pd` and the inline properties.
fn hops_by_record(
    ctx: &EvalCtx<'_>,
    row: &Row,
    node: NodeId,
    rel_pat: &RelPattern,
    pd: Option<&Sargs>,
    ids: &[RelId],
) -> Result<Vec<Hop>> {
    let mut out = Vec::new();
    for &rid in ids {
        let Some(rec) = ctx.view.rel(rid) else {
            continue;
        };
        let other = match rel_pat.direction {
            Direction::Out | Direction::Both if rec.src == node => rec.dst,
            Direction::In | Direction::Both if rec.dst == node => rec.src,
            _ => continue,
        };
        if pd.is_some_and(|pd| !rel_satisfies(rec, pd)) {
            continue;
        }
        if rel_matches(ctx, row, rec, rel_pat)? {
            out.push((rid, other));
        }
    }
    Ok(out)
}

fn rel_matches(ctx: &EvalCtx<'_>, row: &Row, rec: &RelRecord, pat: &RelPattern) -> Result<bool> {
    if !pat.types.is_empty() && !pat.types.contains(&rec.rel_type) {
        return Ok(false);
    }
    props_match(ctx, row, &rec.props, &pat.props)
}

/// Whether every `{key: expr}` of a pattern equals the stored property.
fn props_match(
    ctx: &EvalCtx<'_>,
    row: &Row,
    props: &PropertyMap,
    want: &[(String, Expr)],
) -> Result<bool> {
    for (k, e) in want {
        let want = eval(ctx, row, e)?;
        if props
            .get(k)
            .is_none_or(|have| have.eq3(&want) != Some(true))
        {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Split a `WHERE` clause into its top-level conjuncts and collect, per
/// variable, the equality, ordering, and prefix predicates of shape
/// `var.key <op> expr` (either orientation for `=` and the comparisons).
/// Crate-visible: the executor's top-k fusion re-uses the equality
/// conjuncts to pin composite ordered walks.
pub(crate) fn extract_pushdowns(where_clause: Option<&Expr>) -> Pushdowns {
    fn conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        if let Expr::Binary(BinOp::And, a, b) = e {
            conjuncts(a, out);
            conjuncts(b, out);
        } else {
            out.push(e);
        }
    }
    /// `a < b ⇔ b > a`: the op as seen with the operands swapped.
    fn flip(op: BinOp) -> BinOp {
        match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }
    fn var_prop(e: &Expr) -> Option<(&String, &String)> {
        if let Expr::Prop(base, key) = e {
            if let Expr::Var(v) = base.as_ref() {
                return Some((v, key));
            }
        }
        None
    }
    fn entry<'m>(map: &'m mut Pushdowns, var: &str) -> &'m mut VarPredicates {
        map.entry(var.to_string()).or_default()
    }
    let mut map: Pushdowns = HashMap::new();
    let Some(w) = where_clause else {
        return map;
    };
    let mut cs = Vec::new();
    conjuncts(w, &mut cs);
    for c in cs {
        let Expr::Binary(op, lhs, rhs) = c else {
            continue;
        };
        let (lhs, rhs) = (lhs.as_ref(), rhs.as_ref());
        match (op, var_prop(lhs), var_prop(rhs)) {
            (BinOp::Eq, l, r) => {
                for (prop, value) in [(l, rhs), (r, lhs)] {
                    if let Some((v, key)) = prop {
                        entry(&mut map, v).eqs.push((key.clone(), value.clone()));
                    }
                }
            }
            (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, Some((v, key)), _) => {
                entry(&mut map, v)
                    .ranges
                    .push((key.clone(), *op, rhs.clone()));
            }
            (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, None, Some((v, key))) => {
                entry(&mut map, v)
                    .ranges
                    .push((key.clone(), flip(*op), lhs.clone()));
            }
            (BinOp::StartsWith, Some((v, key)), _) => {
                entry(&mut map, v).prefixes.push((key.clone(), rhs.clone()));
            }
            _ => {}
        }
    }
    map
}

/// The node(s) a transition-variable label (or a bound variable used as
/// one) restricts a position to, in the bound list's order.
pub(crate) fn nodes_from_value(name: &str, v: &Value) -> Result<Vec<NodeId>> {
    let mut out = Vec::new();
    for_members(name, v, |n| out.push(n))?;
    Ok(out)
}

/// Hand `f` each node of [`nodes_from_value`], failing on a value that
/// cannot restrict a position whatever nodes it holds.
fn for_members(name: &str, v: &Value, mut f: impl FnMut(NodeId)) -> Result<()> {
    match v {
        Value::Node(n) => f(*n),
        Value::List(items) => {
            for i in items {
                match i {
                    Value::Node(n) => f(*n),
                    Value::Null => {}
                    other => {
                        return Err(CypherError::type_err(format!(
                            "transition variable '{name}' contains {}, expected nodes",
                            other.type_name()
                        )))
                    }
                }
            }
        }
        Value::Null => {}
        other => {
            return Err(CypherError::type_err(format!(
                "label position '{name}' is bound to {}, expected node(s)",
                other.type_name()
            )))
        }
    }
    Ok(())
}

/// A node pattern's label and property checks as one row sees them.
/// Whether the row binds any of the labels (transition variables: a
/// membership test) is decided once; when it binds none, every label is a
/// stored label and none is looked up in the row.
pub(crate) struct NodeTest<'p> {
    np: &'p NodePattern,
    row_labels: bool,
}

impl<'p> NodeTest<'p> {
    pub(crate) fn new(row: &Row, np: &'p NodePattern) -> NodeTest<'p> {
        let row_labels = np.labels.iter().any(|l| row.contains(l));
        NodeTest { np, row_labels }
    }

    /// Whether `node` passes, `row` being the row the test was made for.
    pub(crate) fn matches(&self, ctx: &EvalCtx<'_>, row: &Row, node: NodeId) -> Result<bool> {
        let np = self.np;
        if np.labels.is_empty() && np.props.is_empty() {
            return Ok(true);
        }
        let rec = ctx.view.node(node);
        for l in &np.labels {
            let pass = match self.row_labels.then(|| row.get(l)).flatten() {
                Some(v) => {
                    let mut member = false;
                    for_members(l, v, |n| member |= n == node)?;
                    member
                }
                None => rec.is_some_and(|r| r.has_label(l)),
            };
            if !pass {
                return Ok(false);
            }
        }
        let no_props = PropertyMap::new();
        props_match(ctx, row, rec.map_or(&no_props, |r| &r.props), &np.props)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Clause;
    use crate::parser::parse_query;
    use crate::row::Params;
    use pg_graph::{Graph, IndexDef, PropertyMap};

    fn props(entries: &[(&str, Value)]) -> PropertyMap {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// Extract patterns + where from a `MATCH … RETURN 1` query.
    fn patterns_of(src: &str) -> (Vec<PathPattern>, Option<Expr>) {
        let q = parse_query(src).unwrap();
        match q.clauses.into_iter().next().unwrap() {
            Clause::Match {
                patterns,
                where_clause,
                ..
            } => (patterns, where_clause),
            _ => panic!("expected MATCH"),
        }
    }

    fn run_match(g: &Graph, src: &str, seed: Row) -> Vec<Row> {
        let (pats, where_) = patterns_of(src);
        let params = Params::new();
        let ctx = EvalCtx::new(g, &params, 0);
        match_patterns(&ctx, &seed, &pats, where_.as_ref()).unwrap()
    }

    /// Small CoV2K-flavoured fixture:
    /// (m:Mutation)-[:Risk]->(e:CriticalEffect), (m)-[:FoundIn]->(s:Sequence)
    fn fixture() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let m = g
            .create_node(["Mutation"], props(&[("name", Value::str("D614G"))]))
            .unwrap();
        let e = g
            .create_node(
                ["CriticalEffect"],
                props(&[("description", Value::str("Enhanced infectivity"))]),
            )
            .unwrap();
        let s = g
            .create_node(["Sequence"], props(&[("accession", Value::str("SEQ1"))]))
            .unwrap();
        g.create_rel(m, e, "Risk", PropertyMap::new()).unwrap();
        g.create_rel(m, s, "FoundIn", PropertyMap::new()).unwrap();
        (g, m, e, s)
    }

    #[test]
    fn label_scan_and_prop_filter() {
        let (g, m, ..) = fixture();
        let rows = run_match(
            &g,
            "MATCH (x:Mutation {name: 'D614G'}) RETURN 1",
            Row::new(),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("x"), Some(&Value::Node(m)));
        let rows = run_match(&g, "MATCH (x:Mutation {name: 'nope'}) RETURN 1", Row::new());
        assert!(rows.is_empty());
    }

    #[test]
    fn directed_and_undirected_hops() {
        let (g, m, e, _) = fixture();
        let rows = run_match(&g, "MATCH (a:Mutation)-[:Risk]->(b) RETURN 1", Row::new());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("b"), Some(&Value::Node(e)));
        // wrong direction
        let rows = run_match(&g, "MATCH (a:Mutation)<-[:Risk]-(b) RETURN 1", Row::new());
        assert!(rows.is_empty());
        // undirected from the effect side
        let rows = run_match(
            &g,
            "MATCH (x:CriticalEffect)-[:Risk]-(y) RETURN 1",
            Row::new(),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("y"), Some(&Value::Node(m)));
    }

    #[test]
    fn multi_segment_path() {
        let (g, _, e, s) = fixture();
        let rows = run_match(
            &g,
            "MATCH (c:CriticalEffect)-[:Risk]-(:Mutation)-[:FoundIn]-(q:Sequence) RETURN 1",
            Row::new(),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("c"), Some(&Value::Node(e)));
        assert_eq!(rows[0].get("q"), Some(&Value::Node(s)));
    }

    #[test]
    fn prebound_node_variable() {
        let (g, m, ..) = fixture();
        let mut seed = Row::new();
        seed.set("a", Value::Node(m));
        let rows = run_match(&g, "MATCH (a)-[:Risk]->(b) RETURN 1", seed);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn prebound_rel_variable() {
        // Paper's NewCriticalLineage binds the relationship variable NEW.
        let mut g = Graph::new();
        let s = g.create_node(["Sequence"], PropertyMap::new()).unwrap();
        let l = g
            .create_node(["Lineage"], props(&[("name", Value::str("B.1.1.7"))]))
            .unwrap();
        let r = g.create_rel(s, l, "BelongsTo", PropertyMap::new()).unwrap();
        let mut seed = Row::new();
        seed.set("NEW", Value::Rel(r));
        let rows = run_match(&g, "MATCH (s:Sequence)-[NEW]-(l:Lineage) RETURN 1", seed);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("l"), Some(&Value::Node(l)));
    }

    #[test]
    fn transition_variable_label() {
        // (pn:NEWNODES) restricts candidates to the bound list.
        let mut g = Graph::new();
        let a = g.create_node(["P"], PropertyMap::new()).unwrap();
        let b = g.create_node(["P"], PropertyMap::new()).unwrap();
        let _c = g.create_node(["P"], PropertyMap::new()).unwrap();
        let mut seed = Row::new();
        seed.set("NEWNODES", Value::list([Value::Node(a), Value::Node(b)]));
        let rows = run_match(&g, "MATCH (pn:NEWNODES) RETURN 1", seed.clone());
        assert_eq!(rows.len(), 2);
        // combined with a stored label
        let rows = run_match(&g, "MATCH (pn:NEWNODES:P) RETURN 1", seed);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn rel_uniqueness_within_match() {
        // a-KNOWS-b only: pattern (x)-[:KNOWS]-(y)-[:KNOWS]-(z) must not
        // reuse the same relationship for both hops.
        let mut g = Graph::new();
        let a = g.create_node(["X"], PropertyMap::new()).unwrap();
        let b = g.create_node(["X"], PropertyMap::new()).unwrap();
        g.create_rel(a, b, "KNOWS", PropertyMap::new()).unwrap();
        let rows = run_match(
            &g,
            "MATCH (x)-[:KNOWS]-(y)-[:KNOWS]-(z) RETURN 1",
            Row::new(),
        );
        assert!(rows.is_empty());
        // but a triangle works
        let c = g.create_node(["X"], PropertyMap::new()).unwrap();
        g.create_rel(b, c, "KNOWS", PropertyMap::new()).unwrap();
        let rows = run_match(
            &g,
            "MATCH (x)-[:KNOWS]-(y)-[:KNOWS]-(z) RETURN 1",
            Row::new(),
        );
        // paths: a-b-c, c-b-a (x/z symmetric)
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn rel_uniqueness_holds_past_the_inline_rels() {
        // A ring of six: a walk that used all six relationships — more
        // than a state holds inline — leaves none for a seventh hop; one
        // that used five leaves exactly the one closing the ring.
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..6)
            .map(|_| g.create_node(["N"], PropertyMap::new()).unwrap())
            .collect();
        for i in 0..6 {
            g.create_rel(ids[i], ids[(i + 1) % 6], "NEXT", PropertyMap::new())
                .unwrap();
        }
        let mut seed = Row::new();
        seed.set("a", Value::Node(ids[0]));
        let q = "MATCH (a)-[:NEXT*6]-(b)-[:NEXT]-(c) RETURN 1";
        assert!(run_match(&g, q, seed.clone()).is_empty());
        let rows = run_match(&g, "MATCH (a)-[:NEXT*5]-(b)-[:NEXT]-(c) RETURN 1", seed);
        assert_eq!(rows.len(), 2); // clockwise and counter-clockwise
        assert!(rows
            .iter()
            .all(|r| r.get("c") == Some(&Value::Node(ids[0]))));
    }

    #[test]
    fn var_length_paths() {
        // chain a->b->c->d
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| {
                g.create_node(["N"], props(&[("i", Value::Int(i))]))
                    .unwrap()
            })
            .collect();
        for w in ids.windows(2) {
            g.create_rel(w[0], w[1], "NEXT", PropertyMap::new())
                .unwrap();
        }
        let mut seed = Row::new();
        seed.set("a", Value::Node(ids[0]));
        let rows = run_match(&g, "MATCH (a)-[:NEXT*1..3]->(b) RETURN 1", seed.clone());
        assert_eq!(rows.len(), 3); // b, c, d
        let rows = run_match(&g, "MATCH (a)-[:NEXT*2]->(b) RETURN 1", seed.clone());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("b"), Some(&Value::Node(ids[2])));
        // rel var binds the list of traversed rels
        let rows = run_match(&g, "MATCH (a)-[r:NEXT*3]->(b) RETURN 1", seed);
        assert_eq!(rows.len(), 1);
        match rows[0].get("r") {
            Some(Value::List(rels)) => assert_eq!(rels.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn where_filter_applies() {
        let (g, ..) = fixture();
        let rows = run_match(
            &g,
            "MATCH (x:Mutation) WHERE x.name STARTS WITH 'D' RETURN 1",
            Row::new(),
        );
        assert_eq!(rows.len(), 1);
        let rows = run_match(
            &g,
            "MATCH (x:Mutation) WHERE x.name STARTS WITH 'Z' RETURN 1",
            Row::new(),
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn multiple_patterns_join() {
        let (g, m, e, s) = fixture();
        let rows = run_match(
            &g,
            "MATCH (a:Mutation)-[:Risk]-(b:CriticalEffect), (a)-[:FoundIn]-(c:Sequence) RETURN 1",
            Row::new(),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("a"), Some(&Value::Node(m)));
        assert_eq!(rows[0].get("b"), Some(&Value::Node(e)));
        assert_eq!(rows[0].get("c"), Some(&Value::Node(s)));
    }

    #[test]
    fn pattern_vars_collects_names() {
        let (pats, _) = patterns_of("MATCH (a)-[r:T]->(b), (c) RETURN 1");
        assert_eq!(pattern_vars(&pats), vec!["a", "b", "c", "r"]);
    }

    /// Planner-level helper: the candidate set chosen for the first
    /// pattern's start node.
    fn candidates_of(g: &Graph, src: &str, seed: &Row) -> Vec<NodeId> {
        let (pats, where_) = patterns_of(src);
        let params = Params::new();
        let ctx = EvalCtx::new(g, &params, 0);
        let pushed = extract_pushdowns(where_.as_ref());
        choose_node_access(&ctx, seed, &pats[0].start, &pushed, &HashSet::new())
            .0
            .candidates(&ctx, seed, &pats[0])
            .unwrap()
    }

    #[test]
    fn second_label_drives_candidates_when_more_selective() {
        // Regression: `(:A:B)` used to scan every `A` node even when `B`
        // was far more selective.
        let mut g = Graph::new();
        for _ in 0..50 {
            g.create_node(["A"], PropertyMap::new()).unwrap();
        }
        let both1 = g.create_node(["A", "B"], PropertyMap::new()).unwrap();
        let both2 = g.create_node(["B", "A"], PropertyMap::new()).unwrap();
        let cands = candidates_of(&g, "MATCH (x:A:B) RETURN 1", &Row::new());
        assert_eq!(cands.len(), 2, "candidates come from the B extent");
        assert!(cands.contains(&both1) && cands.contains(&both2));
        // order of labels in the pattern is irrelevant
        let cands = candidates_of(&g, "MATCH (x:B:A) RETURN 1", &Row::new());
        assert_eq!(cands.len(), 2);
        // and matching still returns exactly the doubly-labelled nodes
        let rows = run_match(&g, "MATCH (x:A:B) RETURN 1", Row::new());
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn inline_prop_map_uses_property_index() {
        let mut g = Graph::new();
        let mut wanted = NodeId(0);
        for i in 0..100 {
            let n = g
                .create_node(["M"], props(&[("name", Value::str(format!("m{i}")))]))
                .unwrap();
            if i == 42 {
                wanted = n;
            }
        }
        // without an index: the label extent is the best source
        let cands = candidates_of(&g, "MATCH (x:M {name: 'm42'}) RETURN 1", &Row::new());
        assert_eq!(cands.len(), 100);
        g.create_index("M", "name");
        let cands = candidates_of(&g, "MATCH (x:M {name: 'm42'}) RETURN 1", &Row::new());
        assert_eq!(cands, vec![wanted]);
        let rows = run_match(&g, "MATCH (x:M {name: 'm42'}) RETURN 1", Row::new());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("x"), Some(&Value::Node(wanted)));
    }

    #[test]
    fn where_equality_conjunct_is_pushed_down() {
        let mut g = Graph::new();
        let mut wanted = NodeId(0);
        for i in 0..100 {
            let n = g
                .create_node(["M"], props(&[("k", Value::Int(i))]))
                .unwrap();
            if i == 7 {
                wanted = n;
            }
        }
        g.create_index("M", "k");
        // conjunct inside an AND, written value-first
        let cands = candidates_of(
            &g,
            "MATCH (x:M) WHERE 7 = x.k AND x.k >= 0 RETURN 1",
            &Row::new(),
        );
        assert_eq!(cands, vec![wanted]);
        let rows = run_match(
            &g,
            "MATCH (x:M) WHERE 7 = x.k AND x.k >= 0 RETURN 1",
            Row::new(),
        );
        assert_eq!(rows.len(), 1);
        // a disjunction must NOT be pushed down
        let cands = candidates_of(
            &g,
            "MATCH (x:M) WHERE x.k = 7 OR x.k = 8 RETURN 1",
            &Row::new(),
        );
        assert_eq!(cands.len(), 100, "OR is not a conjunct");
        let rows = run_match(
            &g,
            "MATCH (x:M) WHERE x.k = 7 OR x.k = 8 RETURN 1",
            Row::new(),
        );
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn unevaluable_pushdown_falls_back_without_losing_rows() {
        // `x.k = y.k` references `y`, bound only later in the join; the
        // planner must skip the path, not fail or drop rows.
        let mut g = Graph::new();
        for i in 0..10 {
            g.create_node(["L"], props(&[("k", Value::Int(i))]))
                .unwrap();
            g.create_node(["R"], props(&[("k", Value::Int(i))]))
                .unwrap();
        }
        g.create_index("L", "k");
        let rows = run_match(
            &g,
            "MATCH (x:L), (y:R) WHERE x.k = y.k RETURN 1",
            Row::new(),
        );
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn index_lookup_respects_numeric_equality() {
        let mut g = Graph::new();
        let n = g
            .create_node(["M"], props(&[("k", Value::Int(1))]))
            .unwrap();
        g.create_index("M", "k");
        // 1.0 = 1 in Cypher; the index must agree
        let rows = run_match(&g, "MATCH (x:M {k: 1.0}) RETURN 1", Row::new());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("x"), Some(&Value::Node(n)));
    }

    /// Planner-level helper: the planned (re-rooted, re-ordered) pattern
    /// list for a query's first MATCH.
    fn planned_of(g: &Graph, src: &str, seed: &Row) -> Vec<PathPattern> {
        let (pats, where_) = patterns_of(src);
        let params = Params::new();
        let ctx = EvalCtx::new(g, &params, 0);
        let pushed = extract_pushdowns(where_.as_ref());
        let planned = plan_patterns(&ctx, seed, &pats, &pushed);
        planned.into_iter().map(|p| p.path).collect()
    }

    /// Planner-level helper: the start candidates the plan of a query's
    /// (single-path) MATCH materializes for `seed`.
    fn start_of(g: &Graph, src: &str, seed: &Row) -> Vec<NodeId> {
        let (pats, where_) = patterns_of(src);
        let params = Params::new();
        let ctx = EvalCtx::new(g, &params, 0);
        let pushed = extract_pushdowns(where_.as_ref());
        let planned = plan_patterns(&ctx, seed, &pats, &pushed);
        start_candidates(&ctx, seed, &planned[0], &pushed).unwrap()
    }

    #[test]
    fn range_pushdown_uses_index() {
        let mut g = Graph::new();
        for i in 0..100 {
            g.create_node(["M"], props(&[("k", Value::Int(i))]))
                .unwrap();
        }
        // without an index the extent is the best source
        let cands = candidates_of(&g, "MATCH (x:M) WHERE x.k >= 95 RETURN 1", &Row::new());
        assert_eq!(cands.len(), 100);
        g.create_index("M", "k");
        let cands = candidates_of(&g, "MATCH (x:M) WHERE x.k >= 95 RETURN 1", &Row::new());
        assert_eq!(cands.len(), 5);
        // the other three operators, both orientations
        for (q, n) in [
            ("MATCH (x:M) WHERE x.k > 95 RETURN 1", 4),
            ("MATCH (x:M) WHERE x.k < 5 RETURN 1", 5),
            ("MATCH (x:M) WHERE x.k <= 5 RETURN 1", 6),
            ("MATCH (x:M) WHERE 95 <= x.k RETURN 1", 5),
            ("MATCH (x:M) WHERE 5 > x.k RETURN 1", 5),
        ] {
            assert_eq!(candidates_of(&g, q, &Row::new()).len(), n, "{q}");
            assert_eq!(run_match(&g, q, Row::new()).len(), n, "{q}");
        }
        // cross-type numeric range
        let rows = run_match(&g, "MATCH (x:M) WHERE x.k >= 97.5 RETURN 1", Row::new());
        assert_eq!(rows.len(), 2);
        assert_eq!(
            candidates_of(&g, "MATCH (x:M) WHERE x.k >= 97.5 RETURN 1", &Row::new()).len(),
            2
        );
    }

    #[test]
    fn conjunction_derives_closed_interval() {
        let mut g = Graph::new();
        for i in 0..100 {
            g.create_node(["M"], props(&[("k", Value::Int(i))]))
                .unwrap();
        }
        g.create_index("M", "k");
        let q = "MATCH (x:M) WHERE x.k >= 10 AND x.k < 20 RETURN 1";
        assert_eq!(candidates_of(&g, q, &Row::new()).len(), 10);
        assert_eq!(run_match(&g, q, Row::new()).len(), 10);
        // redundant conjuncts tighten, not widen
        let q = "MATCH (x:M) WHERE x.k >= 10 AND x.k >= 15 AND x.k < 20 AND x.k < 30 RETURN 1";
        assert_eq!(candidates_of(&g, q, &Row::new()).len(), 5);
        assert_eq!(run_match(&g, q, Row::new()).len(), 5);
        // Gt beats Ge at the same bound
        let q = "MATCH (x:M) WHERE x.k >= 10 AND x.k > 10 AND x.k < 13 RETURN 1";
        assert_eq!(candidates_of(&g, q, &Row::new()).len(), 2);
        assert_eq!(run_match(&g, q, Row::new()).len(), 2);
    }

    #[test]
    fn starts_with_pushdown_uses_prefix_scan() {
        let mut g = Graph::new();
        for i in 0..100 {
            g.create_node(["M"], props(&[("name", Value::str(format!("m{i}")))]))
                .unwrap();
        }
        g.create_index("M", "name");
        let q = "MATCH (x:M) WHERE x.name STARTS WITH 'm1' RETURN 1";
        // m1, m10..m19
        assert_eq!(candidates_of(&g, q, &Row::new()).len(), 11);
        assert_eq!(run_match(&g, q, Row::new()).len(), 11);
        // non-string operand can never match
        let q = "MATCH (x:M) WHERE x.name STARTS WITH 5 RETURN 1";
        assert_eq!(candidates_of(&g, q, &Row::new()).len(), 0);
        assert!(run_match(&g, q, Row::new()).is_empty());
    }

    #[test]
    fn lossy_numerics_fall_back_to_scan_without_losing_rows() {
        let bound = 1i64 << 53;
        let mut g = Graph::new();
        for i in 0..20 {
            g.create_node(["M"], props(&[("k", Value::Int(i))]))
                .unwrap();
        }
        // a stored out-of-range numeric satisfies `k > 5` but cannot live
        // in the index — the planner must scan, and the row must survive
        let big = g
            .create_node(["M"], props(&[("k", Value::Int(bound + 1))]))
            .unwrap();
        g.create_index("M", "k");
        let q = "MATCH (x:M) WHERE x.k > 5 RETURN 1";
        let cands = candidates_of(&g, q, &Row::new());
        assert_eq!(cands.len(), 21, "range refused, fell back to the extent");
        let rows = run_match(&g, q, Row::new());
        assert_eq!(rows.len(), 15); // 6..19 plus the huge value
        assert!(rows.iter().any(|r| r.get("x") == Some(&Value::Node(big))));
        // equality lookups still index-served next to the lossy value
        let cands = candidates_of(&g, "MATCH (x:M {k: 3}) RETURN 1", &Row::new());
        assert_eq!(cands.len(), 1);
    }

    #[test]
    fn join_order_puts_selective_pattern_first() {
        let mut g = Graph::new();
        for _ in 0..50 {
            g.create_node(["Big"], PropertyMap::new()).unwrap();
        }
        g.create_node(["Tiny"], PropertyMap::new()).unwrap();
        let planned = planned_of(&g, "MATCH (a:Big), (b:Tiny) RETURN 1", &Row::new());
        assert_eq!(planned[0].start.labels, vec!["Tiny".to_string()]);
        assert_eq!(planned[1].start.labels, vec!["Big".to_string()]);
        // joint result unchanged
        let rows = run_match(&g, "MATCH (a:Big), (b:Tiny) RETURN 1", Row::new());
        assert_eq!(rows.len(), 50);
    }

    #[test]
    fn path_reversal_anchors_selective_end() {
        let mut g = Graph::new();
        let t = g.create_node(["Tiny"], PropertyMap::new()).unwrap();
        for _ in 0..50 {
            let b = g.create_node(["Big"], PropertyMap::new()).unwrap();
            g.create_rel(b, t, "R", PropertyMap::new()).unwrap();
        }
        let planned = planned_of(&g, "MATCH (a:Big)-[:R]->(b:Tiny) RETURN 1", &Row::new());
        assert_eq!(planned.len(), 1);
        assert_eq!(planned[0].start.labels, vec!["Tiny".to_string()]);
        assert_eq!(planned[0].segments[0].0.direction, Direction::In);
        // matching is unchanged (all 50 paths)
        let rows = run_match(&g, "MATCH (a:Big)-[:R]->(b:Tiny) RETURN 1", Row::new());
        assert_eq!(rows.len(), 50);
        for r in &rows {
            assert_eq!(r.get("b"), Some(&Value::Node(t)));
        }
    }

    #[test]
    fn interior_anchor_splits_named_position() {
        // 20 Mids, one of which (`id = 7`) is index-reachable in 1 probe;
        // 30 Bigs / 30 Big2s with one R / S edge each spread over the
        // Mids. Both end anchors cost an extent scan of 30 plus the walk;
        // the interior anchor costs 1 plus a low-fanout walk in both
        // directions (avg degree 30/20 per hop) — the join-output model
        // makes the split the clear winner.
        let mut g = Graph::new();
        let mids: Vec<NodeId> = (0..20)
            .map(|i| {
                g.create_node(["Mid"], props(&[("id", Value::Int(i))]))
                    .unwrap()
            })
            .collect();
        g.create_index("Mid", "id");
        for i in 0..30usize {
            let a = g.create_node(["Big"], PropertyMap::new()).unwrap();
            let c = g.create_node(["Big2"], PropertyMap::new()).unwrap();
            g.create_rel(a, mids[i % 20], "R", PropertyMap::new())
                .unwrap();
            g.create_rel(mids[i % 20], c, "S", PropertyMap::new())
                .unwrap();
        }
        let q = "MATCH (a:Big)-[:R]->(m:Mid {id: 7})-[:S]->(c:Big2) RETURN 1";
        let planned = planned_of(&g, q, &Row::new());
        assert_eq!(planned.len(), 2, "split at the interior anchor");
        assert_eq!(planned[0].start.labels, vec!["Mid".to_string()]);
        assert_eq!(planned[1].start.labels, vec!["Mid".to_string()]);
        let rows = run_match(&g, q, Row::new());
        // Mid 7 has ⌈(30-7)/20⌉ = 2 R-edges in and 2 S-edges out
        assert_eq!(rows.len(), 2 * 2);
    }

    #[test]
    fn prebound_rel_var_seeds_start_endpoints() {
        // The paper's NewCriticalLineage shape: the bound rel variable
        // must seed the Sequence side instead of scanning the extent.
        let mut g = Graph::new();
        let mut last = (NodeId(0), RelId(0), NodeId(0));
        for i in 0..100 {
            let s = g.create_node(["Sequence"], PropertyMap::new()).unwrap();
            let l = g
                .create_node(["Lineage"], props(&[("i", Value::Int(i))]))
                .unwrap();
            let r = g.create_rel(s, l, "BelongsTo", PropertyMap::new()).unwrap();
            last = (s, r, l);
        }
        let mut seed = Row::new();
        seed.set("NEW", Value::Rel(last.1));
        let cands = start_of(&g, "MATCH (s:Sequence)-[NEW]-(l:Lineage) RETURN 1", &seed);
        assert_eq!(cands.len(), 2, "only the bound rel's endpoints");
        assert!(cands.contains(&last.0) && cands.contains(&last.2));
        let rows = run_match(&g, "MATCH (s:Sequence)-[NEW]-(l:Lineage) RETURN 1", seed);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("l"), Some(&Value::Node(last.2)));
    }

    #[test]
    fn selective_rel_type_extent_seeds_start() {
        let mut g = Graph::new();
        let mut endpoints = Vec::new();
        for i in 0..60 {
            let a = g.create_node(["A"], PropertyMap::new()).unwrap();
            let b = g.create_node(["B"], PropertyMap::new()).unwrap();
            if i < 2 {
                g.create_rel(a, b, "Rare", PropertyMap::new()).unwrap();
                endpoints.push(a);
            }
        }
        let cands = start_of(&g, "MATCH (x:A)-[:Rare]->(y:B) RETURN 1", &Row::new());
        assert_eq!(cands, endpoints, "seeded from the Rare extent");
        let rows = run_match(&g, "MATCH (x:A)-[:Rare]->(y:B) RETURN 1", Row::new());
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn rel_prop_index_seeds_start() {
        let mut g = Graph::new();
        let mut wanted = NodeId(0);
        for i in 0..80 {
            let a = g.create_node(["A"], PropertyMap::new()).unwrap();
            let b = g.create_node(["B"], PropertyMap::new()).unwrap();
            g.create_rel(a, b, "R", props(&[("w", Value::Int(i))]))
                .unwrap();
            if i == 42 {
                wanted = a;
            }
        }
        g.define_index(&IndexDef::rel("R", &["w"]));
        let cands = start_of(&g, "MATCH (x:A)-[r:R {w: 42}]->(y:B) RETURN 1", &Row::new());
        assert_eq!(cands, vec![wanted], "seeded from the rel-prop index");
        let rows = run_match(&g, "MATCH (x:A)-[r:R {w: 42}]->(y:B) RETURN 1", Row::new());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("x"), Some(&Value::Node(wanted)));
    }

    #[test]
    fn planning_materializes_no_candidate_vectors() {
        // Planner v3 invariant: plan_patterns over indexed predicates uses
        // count-only probes — zero materializing index lookups until a
        // matcher materializes the planned seed.
        let mut g = Graph::new();
        for i in 0..200 {
            let a = g
                .create_node(["M"], props(&[("k", Value::Int(i % 5))]))
                .unwrap();
            let b = g.create_node(["Tiny"], PropertyMap::new()).unwrap();
            if i < 2 {
                g.create_rel(a, b, "R", PropertyMap::new()).unwrap();
            }
        }
        g.create_index("M", "k");
        let (pats, where_) =
            patterns_of("MATCH (x:M)-[:R]->(t:Tiny), (y:M) WHERE x.k = 3 AND y.k > 1 RETURN 1");
        let params = Params::new();
        let ctx = EvalCtx::new(&g, &params, 0);
        let pushed = extract_pushdowns(where_.as_ref());
        g.reset_index_probes();
        let planned = plan_patterns(&ctx, &Row::new(), &pats, &pushed);
        let probes = g.index_probes();
        assert_eq!(
            probes.materializing, 0,
            "planning must not materialize candidate vectors"
        );
        assert!(probes.counting > 0, "planning must use count-only probes");
        assert_eq!(planned.len(), pats.len());
        // …and the query still returns the right rows through execution
        let rows = run_match(
            &g,
            "MATCH (x:M)-[:R]->(t:Tiny), (y:M) WHERE x.k = 3 AND y.k > 1 RETURN 1",
            Row::new(),
        );
        // x ∈ {k=3 nodes with an R edge}, y ∈ {k ∈ {2,3,4}} → 0 or more
        let expect_y = 3 * 40; // 40 nodes per residue class
        let expect_x = [0usize, 1].iter().filter(|i| (**i as i64) % 5 == 3).count();
        assert_eq!(rows.len(), expect_x * expect_y);
    }

    #[test]
    fn unevaluable_eq_uses_distinct_selectivity() {
        // `x.k = y.j` with y bound later: the planner can still estimate
        // x's eq pushdown from total/distinct statistics instead of giving
        // up on the index path.
        let mut g = Graph::new();
        for i in 0..100 {
            g.create_node(["L"], props(&[("k", Value::Int(i % 2))]))
                .unwrap();
        }
        g.create_index("L", "k");
        let (pats, where_) = patterns_of("MATCH (x:L) WHERE x.k = y.j RETURN 1");
        let params = Params::new();
        let ctx = EvalCtx::new(&g, &params, 0);
        let pushed = extract_pushdowns(where_.as_ref());
        let (_, cost) =
            choose_node_access(&ctx, &Row::new(), &pats[0].start, &pushed, &HashSet::new());
        // 100 entries over 2 distinct values → average bucket 50
        assert_eq!(cost, 50);
    }

    #[test]
    fn rel_range_pushdown_prunes_hop_expansion() {
        // A hub with 200 outgoing rels, 3 of which satisfy `r.w >= 197`:
        // with a rel-prop index the hop is served from the index (est 3 <
        // degree 200), without it the evaluated predicate still prunes.
        let mut g = Graph::new();
        let hub = g.create_node(["Hub"], PropertyMap::new()).unwrap();
        for i in 0..200 {
            let leaf = g.create_node(["Leaf"], PropertyMap::new()).unwrap();
            g.create_rel(hub, leaf, "R", props(&[("w", Value::Int(i))]))
                .unwrap();
        }
        let q = "MATCH (h:Hub)-[r:R]->(x:Leaf) WHERE r.w >= 197 RETURN 1";
        let rows = run_match(&g, q, Row::new());
        assert_eq!(rows.len(), 3);
        g.define_index(&IndexDef::rel("R", &["w"]));
        g.reset_index_probes();
        let rows = run_match(&g, q, Row::new());
        assert_eq!(rows.len(), 3);
        let probes = g.index_probes();
        assert!(
            probes.materializing >= 1,
            "hop should have been served from the rel-prop index"
        );
        // conjunct that can never be truthy → hop pruned to nothing
        let rows = run_match(
            &g,
            "MATCH (h:Hub)-[r:R]->(x:Leaf) WHERE r.w >= NULL RETURN 1",
            Row::new(),
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn rel_prefix_and_eq_pushdowns_prune_directly() {
        let mut g = Graph::new();
        let hub = g.create_node(["Hub"], PropertyMap::new()).unwrap();
        for i in 0..50 {
            let leaf = g.create_node(["Leaf"], PropertyMap::new()).unwrap();
            g.create_rel(
                hub,
                leaf,
                "R",
                props(&[("tag", Value::str(format!("t{i:02}")))]),
            )
            .unwrap();
        }
        let rows = run_match(
            &g,
            "MATCH (h:Hub)-[r:R]->(x) WHERE r.tag STARTS WITH 't1' RETURN 1",
            Row::new(),
        );
        assert_eq!(rows.len(), 10);
        let rows = run_match(
            &g,
            "MATCH (h:Hub)-[r:R]->(x) WHERE r.tag = 't07' RETURN 1",
            Row::new(),
        );
        assert_eq!(rows.len(), 1);
        // non-string prefix operand → definitively empty
        let rows = run_match(
            &g,
            "MATCH (h:Hub)-[r:R]->(x) WHERE r.tag STARTS WITH 7 RETURN 1",
            Row::new(),
        );
        assert!(rows.is_empty());
    }

    fn cols(cs: &[&str]) -> Vec<String> {
        cs.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn composite_index_serves_conjunction_in_one_probe() {
        // 500 nodes over 5 independent statuses × 100 severities: the
        // (status, severity) conjunction has 1 match; the single-key
        // indexes alone materialize 100 (status) or 5 (severity).
        let mut g = Graph::new();
        for i in 0..500i64 {
            g.create_node(
                ["P"],
                props(&[
                    ("status", Value::str(format!("s{}", i / 100))),
                    ("severity", Value::Int(i % 100)),
                ]),
            )
            .unwrap();
        }
        g.create_index("P", "status");
        g.create_index("P", "severity");
        g.create_composite_index("P", &cols(&["status", "severity"]));
        let q = "MATCH (p:P) WHERE p.status = 's3' AND p.severity = 8 RETURN 1";
        g.reset_index_probes();
        let rows = run_match(&g, q, Row::new());
        assert_eq!(rows.len(), 1); // i = 308
        let probes = g.index_probes();
        assert_eq!(
            probes.materializing, 1,
            "exactly the winning (composite) access path materializes"
        );
        // trailing range form of the §6 conjunction
        let rows = run_match(
            &g,
            "MATCH (p:P {status: 's3'}) WHERE p.severity >= 98 RETURN 1",
            Row::new(),
        );
        assert_eq!(rows.len(), 2); // i ∈ {398, 399}
    }

    #[test]
    fn composite_estimate_is_count_only() {
        let mut g = Graph::new();
        for i in 0..200i64 {
            g.create_node(
                ["P"],
                props(&[("a", Value::Int(i % 4)), ("b", Value::Int(i % 10))]),
            )
            .unwrap();
        }
        g.create_composite_index("P", &cols(&["a", "b"]));
        let (pats, where_) = patterns_of("MATCH (p:P) WHERE p.a = 1 AND p.b = 3 RETURN 1");
        let params = Params::new();
        let ctx = EvalCtx::new(&g, &params, 0);
        let pushed = extract_pushdowns(where_.as_ref());
        g.reset_index_probes();
        let (_, cost) =
            choose_node_access(&ctx, &Row::new(), &pats[0].start, &pushed, &HashSet::new());
        // (a, b) ≡ (1, 3) ⇔ i ≡ 13 (mod 20) → 10 nodes
        assert_eq!(cost, 10);
        let probes = g.index_probes();
        assert_eq!(probes.materializing, 0, "estimation must stay count-only");
        assert!(probes.counting > 0);
    }

    #[test]
    fn rel_composite_pushdown_prunes_hop_expansion() {
        // A hub with 300 outgoing rels over (kind, w); the conjunction
        // matches 2 — with a composite rel index the hop is served from
        // one composite probe rather than the adjacency list.
        let mut g = Graph::new();
        let hub = g.create_node(["Hub"], PropertyMap::new()).unwrap();
        for i in 0..300i64 {
            let leaf = g.create_node(["Leaf"], PropertyMap::new()).unwrap();
            g.create_rel(
                hub,
                leaf,
                "R",
                props(&[
                    ("kind", Value::str(if i % 3 == 0 { "x" } else { "y" })),
                    ("w", Value::Int(i % 50)),
                ]),
            )
            .unwrap();
        }
        let q = "MATCH (h:Hub)-[r:R]->(t) WHERE r.kind = 'x' AND r.w >= 48 RETURN 1";
        let rows = run_match(&g, q, Row::new());
        let expected = rows.len();
        assert!(expected > 0);
        g.define_index(&IndexDef::rel("R", &cols(&["kind", "w"])));
        g.reset_index_probes();
        let rows = run_match(&g, q, Row::new());
        assert_eq!(rows.len(), expected);
        assert!(
            g.index_probes().materializing >= 1,
            "hop should have been served from the composite rel index"
        );
    }

    #[test]
    fn multi_label_pattern_requires_all() {
        let mut g = Graph::new();
        let both = g
            .create_node(["HospitalizedPatient", "IcuPatient"], PropertyMap::new())
            .unwrap();
        let _only = g
            .create_node(["HospitalizedPatient"], PropertyMap::new())
            .unwrap();
        let rows = run_match(
            &g,
            "MATCH (p:HospitalizedPatient:IcuPatient) RETURN 1",
            Row::new(),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("p"), Some(&Value::Node(both)));
    }
}
