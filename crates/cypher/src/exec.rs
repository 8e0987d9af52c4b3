//! Clause-pipeline execution, including updating clauses and projections.
//!
//! ## Top-k (`ORDER BY … LIMIT k`) execution — planner v3
//!
//! Two optimizations make the paper's §6.2.3 relocation shape
//! (`WITH ct, c, hc, pn ORDER BY ct.distance LIMIT 1`) cheap:
//!
//! 1. **Bounded top-k selection.** A projection with `ORDER BY` *and* a
//!    constant `LIMIT` keeps only the best `SKIP + LIMIT` rows in a
//!    bounded heap (O(n log k)) instead of sorting every row. The input
//!    index is the final tiebreaker, so the result is identical to the
//!    stable full sort it replaces.
//! 2. **Index-served top-k.** A non-optional `MATCH` directly followed by
//!    `WITH`/`RETURN … ORDER BY var.k1 [, var.k2, …] LIMIT k`, where `var`
//!    is a node or single-hop relationship variable of the pattern, is
//!    *fused*: candidates are enumerated straight from an ordered index
//!    walk and matching stops as soon as `SKIP + LIMIT` rows were
//!    produced — O(log n + k) for selective patterns. Walk strategies,
//!    tried in order per binding site:
//!
//!    * a **composite walk** over a `(label, [c1, c2, …])` definition that
//!      contains the order keys as a contiguous run
//!      ([`GraphView::ordered_walk`]); columns *before* the run
//!      are **pinned** to equality conjuncts whose operands evaluate
//!      without row bindings (the §6.2.3 relocation shape with a status
//!      filter: `{status: 'ICU'} … ORDER BY severity LIMIT 1`). Composite
//!      entries key absent properties on an explicit missing marker, so
//!      these walks cover the whole extent — both directions fuse (NULL
//!      last ascending, first descending) and no NULL tail is needed;
//!    * for single-key orders, the plain ordered walk of the `(label,
//!      key)` index; items without the property are appended from the
//!      extent after the walk when ascending.
//!
//!    The fusion *declines* (falls back to the heap path, never changing
//!    results) when: the projection aggregates, uses `DISTINCT` or a
//!    post-`WITH WHERE`; an order key is not a plain `var.key` (after
//!    alias resolution); the order keys span more than one variable or
//!    mix ascending and descending; `var` is already bound in a seed row;
//!    a candidate label is shadowed by a transition variable; no index
//!    covers every stored value (lossy numerics, NaN, lists); a
//!    *single-key* order is descending while property-less items exist
//!    (their `NULL` keys would have to lead); a multi-key order has no
//!    composite definition carrying the keys as a contiguous run behind
//!    evaluable pins; the walk exhausts its `TOPK_WALK_BUDGET` candidates
//!    without producing enough rows; or `SKIP + LIMIT` exceeds
//!    `TOPK_FUSE_MAX`. Ties at the cut-off may legitimately resolve
//!    differently than the sort path — the *multiset of order keys* is
//!    always identical.

use crate::ast::visit::{self, NodeMut};
use crate::ast::*;
use crate::error::{CypherError, Result};
use crate::expr::{eval, EvalCtx};
use crate::functions::{is_aggregate, Accumulator};
use crate::pattern::{
    extract_pushdowns, match_patterns, match_patterns_pushed, pattern_vars, Pushdowns,
};
use crate::plan::{plan_topk_projection, plan_topk_walk};
use crate::prepared::{MatchPrep, Prepared};
use crate::row::{Params, QueryOutput, Row};
use pg_graph::{Direction, Graph, GraphView, IndexScope, NodeId, PropertyMap, RelId, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Compare two keyed rows by the `ORDER BY` spec, breaking full ties by
/// input index — the total order a stable sort + truncate would produce.
fn order_cmp(
    order_by: &[(Expr, bool)],
    a: &(Vec<Value>, usize, Row),
    b: &(Vec<Value>, usize, Row),
) -> Ordering {
    for (i, (_, asc)) in order_by.iter().enumerate() {
        let ord = a.0[i].cmp_order(&b.0[i]);
        let ord = if *asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.1.cmp(&b.1)
}

/// Bounded top-k selection: keeps the `keep` smallest keyed rows under
/// [`order_cmp`] in a max-heap (worst kept row at the root), O(n log k).
struct TopKRows<'o> {
    order_by: &'o [(Expr, bool)],
    keep: usize,
    heap: Vec<(Vec<Value>, usize, Row)>,
}

impl<'o> TopKRows<'o> {
    fn new(order_by: &'o [(Expr, bool)], keep: usize) -> Self {
        TopKRows {
            order_by,
            keep,
            heap: Vec::with_capacity(keep.min(1024)),
        }
    }

    fn push(&mut self, item: (Vec<Value>, usize, Row)) {
        if self.keep == 0 {
            return;
        }
        if self.heap.len() < self.keep {
            self.heap.push(item);
            self.sift_up(self.heap.len() - 1);
        } else if order_cmp(self.order_by, &item, &self.heap[0]) == Ordering::Less {
            self.heap[0] = item;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if order_cmp(self.order_by, &self.heap[i], &self.heap[parent]) == Ordering::Greater {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if l < self.heap.len()
                && order_cmp(self.order_by, &self.heap[l], &self.heap[m]) == Ordering::Greater
            {
                m = l;
            }
            if r < self.heap.len()
                && order_cmp(self.order_by, &self.heap[r], &self.heap[m]) == Ordering::Greater
            {
                m = r;
            }
            if m == i {
                break;
            }
            self.heap.swap(i, m);
            i = m;
        }
    }

    fn into_sorted_rows(self) -> Vec<Row> {
        let TopKRows {
            order_by, mut heap, ..
        } = self;
        heap.sort_unstable_by(|a, b| order_cmp(order_by, a, b));
        heap.into_iter().map(|(_, _, r)| r).collect()
    }
}

/// Ceiling on ordered-walk candidates examined per fused top-k before the
/// fusion bails back to the heap path: a walk that keeps *matching
/// nothing* (a selective pattern elsewhere, an empty seed set after
/// filtering) must not degrade into a full index walk with a per-item
/// re-match on the trigger hot path.
const TOPK_WALK_BUDGET: usize = 4096;

/// The value a raw walk id binds the order variable to.
fn walked_value(scope: IndexScope<'_>, raw: u64) -> Value {
    match scope {
        IndexScope::Label(_) => Value::Node(NodeId(raw)),
        IndexScope::RelType(_) => Value::Rel(RelId(raw)),
    }
}

/// The execution target: a mutable graph (full query power) or a read-only
/// view (conditions, pre-state evaluation). Updating clauses against a
/// read-only target fail with [`CypherError::ReadOnly`].
pub enum Target<'a> {
    Write(&'a mut Graph),
    Read(&'a dyn GraphView),
}

/// How `MATCH` drives the pattern matcher. [`MatchMode::Batched`] (the
/// default) flows all seed rows through the stage-wise executor of
/// [`crate::batch`], sharing seed-candidate vectors and memoizing hop
/// expansions where the liveness analysis allows;
/// [`MatchMode::Reference`] recurses one seed row at a time — kept as the
/// differential-testing oracle. Both produce identical rows in identical
/// order. `MERGE` and `EXISTS` always use the reference path (single-seed
/// / existence-capped — batching has nothing to share).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    #[default]
    Batched,
    Reference,
}

/// Executes a parsed query over a target.
pub struct Executor<'a> {
    target: Target<'a>,
    params: &'a Params,
    now_ms: i64,
    match_mode: MatchMode,
    /// The statement being run, when it was prepared: its `MATCH`
    /// clauses skip the text-invariant part of planning.
    prepared: Option<&'a Prepared>,
}

impl<'a> Executor<'a> {
    pub fn new(target: Target<'a>, params: &'a Params, now_ms: i64) -> Self {
        Executor {
            target,
            params,
            now_ms,
            match_mode: MatchMode::default(),
            prepared: None,
        }
    }

    /// Select the `MATCH` execution strategy (defaults to
    /// [`MatchMode::Batched`]).
    pub fn with_match_mode(mut self, mode: MatchMode) -> Self {
        self.match_mode = mode;
        self
    }

    fn view(&self) -> &dyn GraphView {
        match &self.target {
            Target::Write(g) => *g as &dyn GraphView,
            Target::Read(v) => *v,
        }
    }

    fn graph_mut(&mut self, what: &'static str) -> Result<&mut Graph> {
        match &mut self.target {
            Target::Write(g) => Ok(g),
            Target::Read(_) => Err(CypherError::ReadOnly(what)),
        }
    }

    /// Run a prepared statement's query from the given seed rows, reusing
    /// its per-`MATCH` preparation. Row-for-row what [`Executor::run`]
    /// gives for the same query.
    pub fn run_prepared(&mut self, stmt: &'a Prepared, seeds: Vec<Row>) -> Result<QueryOutput> {
        self.prepared = Some(stmt);
        self.run(stmt.query(), seeds)
    }

    /// The preparation of `clause` when it belongs to the prepared
    /// statement being run.
    fn match_prep(&self, clause: &Clause) -> Option<&'a MatchPrep> {
        self.prepared.and_then(|stmt| stmt.match_prep(clause))
    }

    /// The pushdowns of a `MATCH` clause: prepared, else extracted now.
    fn pushdowns(&self, clause: &Clause, where_clause: Option<&Expr>) -> Cow<'a, Pushdowns> {
        match self.match_prep(clause) {
            Some(prep) => Cow::Borrowed(&prep.pushed),
            None => Cow::Owned(extract_pushdowns(where_clause)),
        }
    }

    /// Run the query from the given seed rows (an empty seed list means one
    /// empty row, i.e. a fresh pipeline).
    pub fn run(&mut self, query: &Query, seeds: Vec<Row>) -> Result<QueryOutput> {
        let mut rows = if seeds.is_empty() {
            vec![Row::new()]
        } else {
            seeds
        };
        let mut output: Option<(Vec<String>, Vec<Row>)> = None;
        rows = self.run_clauses(&query.clauses, rows, &mut output)?;
        let mut qo = QueryOutput {
            bindings: rows,
            ..QueryOutput::default()
        };
        if let Some((columns, out_rows)) = output {
            qo.rows = out_rows
                .iter()
                .map(|r| {
                    columns
                        .iter()
                        .map(|c| r.get(c).cloned().unwrap_or(Value::Null))
                        .collect()
                })
                .collect();
            qo.columns = columns;
        }
        Ok(qo)
    }

    fn run_clauses(
        &mut self,
        clauses: &[Clause],
        mut rows: Vec<Row>,
        output: &mut Option<(Vec<String>, Vec<Row>)>,
    ) -> Result<Vec<Row>> {
        let mut i = 0;
        while i < clauses.len() {
            // Fuse MATCH + WITH/RETURN `ORDER BY var.key LIMIT k` into an
            // ordered index walk with early exit (see module docs).
            if let Clause::Match {
                optional: false,
                patterns,
                where_clause,
            } = &clauses[i]
            {
                let next_proj = match clauses.get(i + 1) {
                    Some(Clause::With(p)) => Some((p, false)),
                    Some(Clause::Return(p)) => Some((p, true)),
                    _ => None,
                };
                if let Some((proj, is_return)) = next_proj {
                    if let Some(matched) = self.try_indexed_topk(
                        &clauses[i],
                        patterns,
                        where_clause.as_ref(),
                        proj,
                        &rows,
                    )? {
                        let (cols, out) = self.project(proj, matched, !is_return)?;
                        if is_return {
                            *output = Some((cols, out.clone()));
                        }
                        rows = out;
                        i += 2;
                        continue;
                    }
                }
            }
            rows = self.exec_clause(&clauses[i], rows, output)?;
            i += 1;
        }
        Ok(rows)
    }

    /// Execute a fused index-served top-k `MATCH` — the walk
    /// [`plan_topk_walk`] decided: for each walked item, bind `spec.var`
    /// and re-match the full pattern under the walk's seeds, each walk
    /// stopping at its own `spec.keep` rows. Returns the matched binding
    /// rows (a superset of the final top-k, in order-key order) or `None`
    /// when fusion declined — no walk planned, the index refuses an
    /// ordered walk (lossy values), or the candidate budget ran dry — and
    /// the caller must run the clauses separately.
    fn try_indexed_topk(
        &self,
        clause: &Clause,
        patterns: &[PathPattern],
        where_clause: Option<&Expr>,
        proj: &Projection,
        seeds: &[Row],
    ) -> Result<Option<Vec<Row>>> {
        let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
        let Some(spec) = plan_topk_projection(&ctx, proj, seeds)? else {
            return Ok(None);
        };
        let pushed = self.pushdowns(clause, where_clause);
        let Some(plan) = plan_topk_walk(&ctx, patterns, &pushed, &spec, seeds) else {
            return Ok(None);
        };
        let mut budget = TOPK_WALK_BUDGET;
        let mut out: Vec<Row> = Vec::new();
        for (pins, seeds) in &plan.walks {
            let walk = ctx
                .view
                .ordered_walk(plan.scope, &plan.def, pins, spec.descending);
            let Some(walk) = walk else {
                return Ok(None);
            };
            let produced = out.len();
            for raw in walk {
                if budget == 0 {
                    return Ok(None);
                }
                budget -= 1;
                for seed in *seeds {
                    let mut s2 = seed.clone_with_room(1);
                    s2.set(&spec.var, walked_value(plan.scope, raw));
                    out.extend(match_patterns_pushed(
                        &ctx,
                        &s2,
                        patterns,
                        where_clause,
                        &pushed,
                        None,
                    )?);
                }
                if out.len() - produced >= spec.keep {
                    break;
                }
            }
        }
        Ok(Some(out))
    }

    fn exec_clause(
        &mut self,
        clause: &Clause,
        rows: Vec<Row>,
        output: &mut Option<(Vec<String>, Vec<Row>)>,
    ) -> Result<Vec<Row>> {
        match clause {
            Clause::Match {
                optional,
                patterns,
                where_clause,
            } => {
                let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
                let per_seed: Vec<Vec<Row>> = match self.match_mode {
                    MatchMode::Batched => crate::batch::match_patterns_batch(
                        &ctx,
                        &rows,
                        patterns,
                        where_clause.as_ref(),
                        &self.pushdowns(clause, where_clause.as_ref()),
                    )?,
                    MatchMode::Reference => rows
                        .iter()
                        .map(|row| match_patterns(&ctx, row, patterns, where_clause.as_ref(), None))
                        .collect::<Result<_>>()?,
                };
                // What an unmatched OPTIONAL MATCH null-binds.
                let nulls = optional.then(|| {
                    let vars = match self.match_prep(clause) {
                        Some(prep) => Cow::Borrowed(&prep.vars[..]),
                        None => Cow::Owned(pattern_vars(patterns)),
                    };
                    Row::from_pairs(vars.iter().map(|v| (v, Value::Null)))
                });
                let mut out = Vec::new();
                for (row, matches) in rows.iter().zip(per_seed) {
                    match &nulls {
                        Some(nulls) if matches.is_empty() => {
                            let mut r2 = row.clone();
                            r2.merge_missing(nulls);
                            out.push(r2);
                        }
                        _ => out.extend(matches),
                    }
                }
                Ok(out)
            }
            Clause::Where(pred) => {
                let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
                let mut out = Vec::new();
                for row in rows {
                    if eval(&ctx, &row, pred)?.is_truthy() {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            Clause::Unwind { expr, alias } => {
                let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
                let mut out = Vec::new();
                for row in &rows {
                    let items = match eval(&ctx, row, expr)? {
                        Value::Null => continue,
                        Value::List(items) => items,
                        single => vec![single],
                    };
                    for item in items {
                        let mut r2 = row.clone_with_room(1);
                        r2.set(alias, item);
                        out.push(r2);
                    }
                }
                Ok(out)
            }
            Clause::With(proj) => {
                let (_cols, out) = self.project(proj, rows, true)?;
                Ok(out)
            }
            Clause::Return(proj) => {
                let (cols, out) = self.project(proj, rows, false)?;
                *output = Some((cols, out.clone()));
                Ok(out)
            }
            Clause::Create { patterns } => {
                let mut out = Vec::new();
                for mut row in rows {
                    for p in patterns {
                        self.create_path(&mut row, p)?;
                    }
                    out.push(row);
                }
                Ok(out)
            }
            Clause::Merge {
                pattern,
                on_create,
                on_match,
            } => {
                let mut out = Vec::new();
                for row in rows {
                    let matches = {
                        let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
                        match_patterns(&ctx, &row, std::slice::from_ref(pattern), None, None)?
                    };
                    if matches.is_empty() {
                        let mut r2 = row.clone();
                        self.create_path(&mut r2, pattern)?;
                        self.apply_set_items(on_create, std::slice::from_mut(&mut r2))?;
                        out.push(r2);
                    } else {
                        let mut matched = matches;
                        self.apply_set_items(on_match, &mut matched)?;
                        out.extend(matched);
                    }
                }
                Ok(out)
            }
            Clause::Set { items } => {
                let mut rows = rows;
                self.apply_set_items(items, &mut rows)?;
                Ok(rows)
            }
            Clause::Remove { items } => {
                for row in &rows {
                    for item in items {
                        match item {
                            RemoveItem::Prop { target, key } => {
                                let tv = {
                                    let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
                                    eval(&ctx, row, target)?
                                };
                                match tv {
                                    Value::Node(n) => {
                                        self.graph_mut("REMOVE")?.remove_node_prop(n, key)?;
                                    }
                                    Value::Rel(r) => {
                                        self.graph_mut("REMOVE")?.remove_rel_prop(r, key)?;
                                    }
                                    Value::Null => {}
                                    other => {
                                        return Err(CypherError::type_err(format!(
                                            "REMOVE on {}",
                                            other.type_name()
                                        )))
                                    }
                                }
                            }
                            RemoveItem::Labels { var, labels } => {
                                let tv = row
                                    .get(var)
                                    .cloned()
                                    .ok_or_else(|| CypherError::UnboundVariable(var.clone()))?;
                                match tv {
                                    Value::Node(n) => {
                                        let g = self.graph_mut("REMOVE")?;
                                        for l in labels {
                                            g.remove_label(n, l)?;
                                        }
                                    }
                                    Value::Null => {}
                                    other => {
                                        return Err(CypherError::type_err(format!(
                                            "REMOVE label on {}",
                                            other.type_name()
                                        )))
                                    }
                                }
                            }
                        }
                    }
                }
                Ok(rows)
            }
            Clause::Delete { detach, exprs } => {
                // Collect targets first (eval needs the read view), then
                // mutate; tolerate items already deleted by an earlier row.
                let mut nodes = Vec::new();
                let mut rels = Vec::new();
                {
                    let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
                    for row in &rows {
                        for e in exprs {
                            collect_delete_targets(eval(&ctx, row, e)?, &mut nodes, &mut rels)?;
                        }
                    }
                }
                let g = self.graph_mut("DELETE")?;
                for r in rels {
                    if g.rel_exists(r) {
                        g.delete_rel(r)?;
                    }
                }
                for n in nodes {
                    if g.node_exists(n) {
                        if *detach {
                            g.detach_delete_node(n)?;
                        } else {
                            g.delete_node(n)?;
                        }
                    }
                }
                Ok(rows)
            }
            Clause::Foreach { var, list, body } => {
                for row in &rows {
                    let lv = {
                        let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
                        eval(&ctx, row, list)?
                    };
                    let items = match lv {
                        Value::Null => continue,
                        Value::List(items) => items,
                        single => vec![single],
                    };
                    for item in items {
                        let mut inner = row.clone_with_room(1);
                        inner.set(var, item);
                        let mut ignored = None;
                        self.run_clauses(body, vec![inner], &mut ignored)?;
                    }
                }
                Ok(rows)
            }
            Clause::Abort(msg_expr) => {
                if let Some(first) = rows.first() {
                    let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
                    let msg = match eval(&ctx, first, msg_expr)? {
                        Value::Str(s) => s,
                        other => other.to_string(),
                    };
                    return Err(CypherError::Aborted(msg));
                }
                Ok(rows)
            }
        }
    }

    // ------------------------------------------------------------------
    // Updating helpers
    // ------------------------------------------------------------------

    fn apply_set_items(&mut self, items: &[SetItem], rows: &mut [Row]) -> Result<()> {
        for row in rows.iter() {
            for item in items {
                match item {
                    SetItem::Prop { target, key, value } => {
                        let (tv, v) = {
                            let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
                            (eval(&ctx, row, target)?, eval(&ctx, row, value)?)
                        };
                        match tv {
                            Value::Node(n) => {
                                self.graph_mut("SET")?.set_node_prop(n, key.clone(), v)?;
                            }
                            Value::Rel(r) => {
                                self.graph_mut("SET")?.set_rel_prop(r, key.clone(), v)?;
                            }
                            Value::Null => {}
                            other => {
                                return Err(CypherError::type_err(format!(
                                    "SET property on {}",
                                    other.type_name()
                                )))
                            }
                        }
                    }
                    SetItem::Labels { var, labels } => {
                        let tv = row
                            .get(var)
                            .cloned()
                            .ok_or_else(|| CypherError::UnboundVariable(var.clone()))?;
                        match tv {
                            Value::Node(n) => {
                                let g = self.graph_mut("SET")?;
                                for l in labels {
                                    g.set_label(n, l.clone())?;
                                }
                            }
                            Value::Null => {}
                            other => {
                                return Err(CypherError::type_err(format!(
                                    "SET label on {}",
                                    other.type_name()
                                )))
                            }
                        }
                    }
                    SetItem::ReplaceProps { var, value } | SetItem::MergeProps { var, value } => {
                        let replace = matches!(item, SetItem::ReplaceProps { .. });
                        let (tv, v) = {
                            let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
                            let tv = row
                                .get(var)
                                .cloned()
                                .ok_or_else(|| CypherError::UnboundVariable(var.clone()))?;
                            (tv, eval(&ctx, row, value)?)
                        };
                        let map = match v {
                            Value::Map(m) => m,
                            Value::Null => continue,
                            other => {
                                return Err(CypherError::type_err(format!(
                                    "SET {} = expects a map, got {}",
                                    var,
                                    other.type_name()
                                )))
                            }
                        };
                        match tv {
                            Value::Node(n) => {
                                if replace {
                                    let keys = self.view().node_prop_keys(n);
                                    let g = self.graph_mut("SET")?;
                                    for k in keys {
                                        if !map.contains_key(&k) {
                                            g.remove_node_prop(n, &k)?;
                                        }
                                    }
                                }
                                let g = self.graph_mut("SET")?;
                                for (k, val) in map {
                                    g.set_node_prop(n, k, val)?;
                                }
                            }
                            Value::Rel(r) => {
                                if replace {
                                    let keys = self.view().rel_prop_keys(r);
                                    let g = self.graph_mut("SET")?;
                                    for k in keys {
                                        if !map.contains_key(&k) {
                                            g.remove_rel_prop(r, &k)?;
                                        }
                                    }
                                }
                                let g = self.graph_mut("SET")?;
                                for (k, val) in map {
                                    g.set_rel_prop(r, k, val)?;
                                }
                            }
                            Value::Null => {}
                            other => {
                                return Err(CypherError::type_err(format!(
                                    "SET map on {}",
                                    other.type_name()
                                )))
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// `CREATE` one path for one row, binding any fresh variables.
    fn create_path(&mut self, row: &mut Row, path: &PathPattern) -> Result<()> {
        let mut prev = self.resolve_or_create_node(row, &path.start)?;
        for (rel_pat, node_pat) in &path.segments {
            if rel_pat.hops.is_some() {
                return Err(CypherError::type_err(
                    "variable-length relationships cannot be created",
                ));
            }
            if rel_pat.types.len() != 1 {
                return Err(CypherError::type_err(
                    "CREATE requires exactly one relationship type",
                ));
            }
            let next = self.resolve_or_create_node(row, node_pat)?;
            let (src, dst) = match rel_pat.direction {
                Direction::Out => (prev, next),
                Direction::In => (next, prev),
                Direction::Both => {
                    return Err(CypherError::type_err(
                        "CREATE requires a directed relationship",
                    ))
                }
            };
            let props = self.eval_prop_map(row, &rel_pat.props)?;
            let rid =
                self.graph_mut("CREATE")?
                    .create_rel(src, dst, rel_pat.types[0].clone(), props)?;
            if let Some(v) = &rel_pat.var {
                row.set(v, Value::Rel(rid));
            }
            prev = next;
        }
        Ok(())
    }

    fn resolve_or_create_node(
        &mut self,
        row: &mut Row,
        np: &NodePattern,
    ) -> Result<pg_graph::NodeId> {
        if let Some(v) = &np.var {
            if let Some(bound) = row.get(v) {
                return match bound {
                    Value::Node(n) => Ok(*n),
                    other => Err(CypherError::type_err(format!(
                        "CREATE cannot reuse '{v}' bound to {}",
                        other.type_name()
                    ))),
                };
            }
        }
        let props = self.eval_prop_map(row, &np.props)?;
        let id = self
            .graph_mut("CREATE")?
            .create_node(np.labels.iter().cloned(), props)?;
        if let Some(v) = &np.var {
            row.set(v, Value::Node(id));
        }
        Ok(id)
    }

    fn eval_prop_map(&self, row: &Row, props: &[(String, Expr)]) -> Result<PropertyMap> {
        let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
        let mut pm = PropertyMap::new();
        for (k, e) in props {
            pm.set(k.clone(), eval(&ctx, row, e)?);
        }
        Ok(pm)
    }

    // ------------------------------------------------------------------
    // Projection (WITH / RETURN) with grouping & aggregation
    // ------------------------------------------------------------------

    fn project(
        &mut self,
        proj: &Projection,
        rows: Vec<Row>,
        allow_where: bool,
    ) -> Result<(Vec<String>, Vec<Row>)> {
        // Expand `*` into identity items over all bound names.
        let mut items: Vec<ProjItem> = Vec::new();
        if proj.star {
            // Consecutive rows nearly always bind the same names: only a row
            // whose names differ from its predecessor's is looked at.
            let mut names: Vec<String> = Vec::new();
            let mut prev: Option<&Row> = None;
            for r in &rows {
                if prev.is_some_and(|p| p.same_names(r)) {
                    continue;
                }
                prev = Some(r);
                for n in r.names() {
                    if !names.iter().any(|have| have == n) {
                        names.push(n.to_string());
                    }
                }
            }
            names.sort();
            for n in names {
                items.push(ProjItem {
                    expr: Expr::Var(n.clone()),
                    alias: Some(n),
                });
            }
        }
        items.extend(proj.items.iter().cloned());
        let columns: Vec<String> = items.iter().map(|i| i.name()).collect();

        let has_agg = items.iter().any(|i| i.expr.has_aggregate());
        let mut projected: Vec<Row> = if has_agg {
            self.project_grouped(&items, &columns, &rows)?
        } else {
            let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
            let mut out = Vec::with_capacity(rows.len());
            for row in &rows {
                let mut r2 = Row::with_capacity(items.len());
                for (item, col) in items.iter().zip(&columns) {
                    r2.set(col, eval(&ctx, row, &item.expr)?);
                }
                out.push(r2);
            }
            out
        };

        if proj.distinct {
            let mut seen: Vec<Row> = Vec::new();
            for r in projected {
                if !seen.contains(&r) {
                    seen.push(r);
                }
            }
            projected = seen;
        }

        if allow_where {
            if let Some(pred) = &proj.where_clause {
                let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
                let mut kept = Vec::new();
                for r in projected {
                    if eval(&ctx, &r, pred)?.is_truthy() {
                        kept.push(r);
                    }
                }
                projected = kept;
            }
        }

        let skip = match &proj.skip {
            Some(e) => self.eval_const_int(e)? as usize,
            None => 0,
        };
        let limit = match &proj.limit {
            Some(e) => Some(self.eval_const_int(e)? as usize),
            None => None,
        };

        if !proj.order_by.is_empty() {
            let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
            if let Some(l) = limit {
                // Bounded top-k: keep only the best SKIP + LIMIT rows
                // (O(n log k)); the input index as final tiebreaker makes
                // this identical to the stable full sort it replaces.
                let mut top = TopKRows::new(&proj.order_by, skip.saturating_add(l));
                for (idx, r) in projected.into_iter().enumerate() {
                    let mut keys = Vec::with_capacity(proj.order_by.len());
                    for (e, _) in &proj.order_by {
                        keys.push(eval(&ctx, &r, e)?);
                    }
                    top.push((keys, idx, r));
                }
                projected = top.into_sorted_rows();
            } else {
                let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(projected.len());
                for r in projected {
                    let mut keys = Vec::with_capacity(proj.order_by.len());
                    for (e, _) in &proj.order_by {
                        keys.push(eval(&ctx, &r, e)?);
                    }
                    keyed.push((keys, r));
                }
                keyed.sort_by(|(ka, _), (kb, _)| {
                    for (i, (_, asc)) in proj.order_by.iter().enumerate() {
                        let ord = ka[i].cmp_order(&kb[i]);
                        let ord = if *asc { ord } else { ord.reverse() };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                projected = keyed.into_iter().map(|(_, r)| r).collect();
            }
        }

        let mut projected: Vec<Row> = projected.into_iter().skip(skip).collect();
        if let Some(l) = limit {
            projected.truncate(l);
        }

        Ok((columns, projected))
    }

    fn eval_const_int(&self, e: &Expr) -> Result<i64> {
        let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
        crate::plan::eval_const_int(&ctx, e)
    }

    fn project_grouped(
        &mut self,
        items: &[ProjItem],
        columns: &[String],
        rows: &[Row],
    ) -> Result<Vec<Row>> {
        // Split items into group keys and aggregate-bearing expressions; the
        // latter get their aggregate subexpressions replaced by placeholder
        // variables resolved per group.
        struct AggSpec {
            arg: Option<Expr>, // None = count(*)
            name: String,
            distinct: bool,
        }
        let mut specs: Vec<AggSpec> = Vec::new();
        // The aggregate calls `has_aggregate` finds, in walk order.
        let mut rewrite = |item: &Expr| {
            let mut rewritten = item.clone();
            visit::expr_mut(&mut rewritten, &mut |node: NodeMut| {
                let NodeMut::Expr(e) = node else {
                    return false;
                };
                let spec = match e {
                    Expr::CountStar => AggSpec {
                        arg: None,
                        name: "count".into(),
                        distinct: false,
                    },
                    Expr::Func {
                        name,
                        args,
                        distinct,
                    } if is_aggregate(name) => AggSpec {
                        arg: args.first().cloned(),
                        name: name.clone(),
                        distinct: *distinct,
                    },
                    _ => return !matches!(e, Expr::ExistsSubquery(..) | Expr::ListComp { .. }),
                };
                specs.push(spec);
                *e = Expr::Var(format!("__agg{}", specs.len() - 1));
                false
            });
            rewritten
        };

        enum ItemKind {
            GroupKey(Expr),
            Agg(Expr), // rewritten with placeholders
        }
        let kinds: Vec<ItemKind> = items
            .iter()
            .map(|i| {
                if i.expr.has_aggregate() {
                    ItemKind::Agg(rewrite(&i.expr))
                } else {
                    ItemKind::GroupKey(i.expr.clone())
                }
            })
            .collect();

        // Group rows by evaluated group-key tuples.
        struct Group {
            key: Vec<Value>,
            accs: Vec<Accumulator>,
            rep: Row,
        }
        let mut groups: Vec<Group> = Vec::new();
        {
            let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
            for row in rows {
                let mut key = Vec::new();
                for k in &kinds {
                    if let ItemKind::GroupKey(e) = k {
                        key.push(eval(&ctx, row, e)?);
                    }
                }
                let group = match groups.iter_mut().find(|g| g.key == key) {
                    Some(g) => g,
                    None => {
                        let accs = specs
                            .iter()
                            .map(|s| Accumulator::new(&s.name, s.distinct).expect("aggregate"))
                            .collect();
                        groups.push(Group {
                            key,
                            accs,
                            rep: row.clone(),
                        });
                        groups.last_mut().unwrap()
                    }
                };
                for (si, spec) in specs.iter().enumerate() {
                    let v = match &spec.arg {
                        None => Value::Int(1), // count(*): count every row
                        Some(arg) => eval(&ctx, row, arg)?,
                    };
                    group.accs[si].push(v)?;
                }
            }
            // Aggregation over the empty input with no group keys yields a
            // single group (so `RETURN count(*)` on no rows is 0).
            let no_group_keys = kinds.iter().all(|k| matches!(k, ItemKind::Agg(_)));
            if groups.is_empty() && no_group_keys {
                groups.push(Group {
                    key: Vec::new(),
                    accs: specs
                        .iter()
                        .map(|s| Accumulator::new(&s.name, s.distinct).expect("aggregate"))
                        .collect(),
                    rep: Row::new(),
                });
            }
        }

        // Materialize one output row per group.
        let ctx = EvalCtx::new(self.view(), self.params, self.now_ms);
        let mut out = Vec::with_capacity(groups.len());
        for g in groups {
            let mut env = g.rep.clone_with_room(g.accs.len());
            for (si, acc) in g.accs.into_iter().enumerate() {
                env.set(format!("__agg{si}"), acc.finish());
            }
            let mut r2 = Row::with_capacity(kinds.len());
            let mut key_iter = g.key.into_iter();
            for (kind, col) in kinds.iter().zip(columns) {
                match kind {
                    ItemKind::GroupKey(_) => {
                        r2.set(col, key_iter.next().expect("group key"));
                    }
                    ItemKind::Agg(rewritten) => {
                        r2.set(col, eval(&ctx, &env, rewritten)?);
                    }
                }
            }
            out.push(r2);
        }
        Ok(out)
    }
}

fn collect_delete_targets(
    v: Value,
    nodes: &mut Vec<pg_graph::NodeId>,
    rels: &mut Vec<pg_graph::RelId>,
) -> Result<()> {
    match v {
        Value::Node(n) => nodes.push(n),
        Value::Rel(r) => rels.push(r),
        Value::Null => {}
        Value::List(items) => {
            for i in items {
                collect_delete_targets(i, nodes, rels)?;
            }
        }
        other => {
            return Err(CypherError::type_err(format!(
                "DELETE on {}",
                other.type_name()
            )))
        }
    }
    Ok(())
}
