//! The clause plan (planner v4).
//!
//! `steps` turns a query's clauses into one [`Step`] each, and it is the
//! only place that decides how a clause runs: streaming (a `MATCH`,
//! `WHERE` or `UNWIND`, or a `WITH`/`RETURN` without aggregation,
//! `ORDER BY`, `DISTINCT` or `*`), collecting its input first, projecting
//! with a fold (a bounded top-k heap, sorted rows, groups, which
//! `DISTINCT` is too; a `*` holds its input until the names are known) or
//! as an updating barrier; which `MATCH` + projection pairs are top-k
//! fusion candidates; and where a run of streaming clauses collects.
//! [`crate::exec`] builds its pipeline stages from that list, and `EXPLAIN`
//! prints it: [`lower_query`] annotates each `MATCH` step with the
//! [`PhysicalPathPlan`]s of the very `plan_patterns` call the matchers
//! make ([`crate::pattern`]), so the `Seed`/`Expand` lines are the
//! matcher's plan by construction.
//!
//! This module is also the home of the **top-k fusion decision**:
//! [`TopKSpec`] and `plan_topk_projection` (the projection-side decline
//! rules), `plan_topk_walk` (binding site, index definition, pins) and
//! `composite_pin` inspect only the AST, the seeds and the catalog. The
//! executor runs the walk they return and `EXPLAIN` renders `TopK` when
//! they return one, so the two cannot disagree about *whether* a pair
//! fuses; what remains run-time only is the walk itself (an index that
//! refuses an ordered walk over lossy values, the candidate budget).

use crate::ast::{Clause, Expr, PathPattern, Projection, Query};
use crate::batch::last_hop_folds;
use crate::error::{CypherError, Result};
use crate::exec::Grouper;
use crate::expr::{eval, EvalCtx};
use crate::pattern::{extract_pushdowns, plan_patterns, Pushdowns};
use crate::physical::PhysicalPathPlan;
use crate::row::Row;
use pg_graph::{IndexScope, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Largest `SKIP + LIMIT` the index-served top-k fusion accepts; beyond
/// it, per-item re-matching would erase the early-exit advantage.
pub(crate) const TOPK_FUSE_MAX: usize = 128;

/// The projection-side shape of a fusable top-k: `ORDER BY var.k1
/// [, var.k2, …]` with a constant `SKIP + LIMIT` budget. Every order key
/// must dereference the *same* pattern variable and share one direction
/// (a composite walk has a single direction; mixed-direction multi-key
/// orders decline to the heap path).
#[derive(Debug, Clone, PartialEq)]
pub struct TopKSpec {
    /// The pattern variable the order keys dereference.
    pub var: String,
    /// The property keys ordered by, in order. One key → single-key or
    /// composite walks; several → composite walks only.
    pub keys: Vec<String>,
    pub descending: bool,
    /// Rows to produce before stopping (`SKIP + LIMIT`).
    pub keep: usize,
}

/// Evaluate a constant (seed-independent) non-negative integer expression
/// — the `SKIP` / `LIMIT` operands.
pub(crate) fn eval_const_int(ctx: &EvalCtx<'_>, e: &Expr) -> Result<i64> {
    let v = eval(ctx, &Row::new(), e)?;
    v.as_i64()
        .filter(|n| *n >= 0)
        .ok_or_else(|| CypherError::type_err("SKIP/LIMIT must be a non-negative integer"))
}

/// Whether a projection has the shape a top-k fusion can serve: `ORDER BY`
/// and `LIMIT`, no `DISTINCT`, no post-`WITH` `WHERE`, no aggregate.
fn topk_shaped(proj: &Projection) -> bool {
    !proj.order_by.is_empty()
        && proj.limit.is_some()
        && !proj.distinct
        && proj.where_clause.is_none()
        && !proj.items.iter().any(|it| it.expr.has_aggregate())
}

/// Analyze the projection side of a potential top-k fusion; `None` =
/// fusion declined (shape, aggregation, or aliasing rules — the full
/// decline catalog lives in the [`crate::exec`] module docs).
pub(crate) fn plan_topk_projection(
    ctx: &EvalCtx<'_>,
    proj: &Projection,
    seeds: &[Row],
) -> Result<Option<TopKSpec>> {
    if !topk_shaped(proj) {
        return Ok(None);
    }
    let skip = match &proj.skip {
        Some(e) => eval_const_int(ctx, e)? as usize,
        None => 0,
    };
    let limit = match &proj.limit {
        Some(e) => eval_const_int(ctx, e)? as usize,
        None => unreachable!("checked above"),
    };
    let keep = skip.saturating_add(limit);
    if keep > TOPK_FUSE_MAX {
        return Ok(None);
    }
    // Resolve every order key: `ORDER BY alias` is traced back to its
    // projected expression; each must be a plain `var.key` over one
    // shared `var`, and all directions must agree (a walk has one
    // direction — mixed multi-key orders decline).
    let mut var: Option<&String> = None;
    let mut keys: Vec<String> = Vec::with_capacity(proj.order_by.len());
    let mut ascending: Option<bool> = None;
    let mut any_literal = false;
    for (key_expr, asc) in &proj.order_by {
        match ascending {
            None => ascending = Some(*asc),
            Some(a) if a == *asc => {}
            Some(_) => return Ok(None),
        }
        let mut via_alias = false;
        let key_expr = if let Expr::Var(name) = key_expr {
            match proj.items.iter().find(|it| &it.name() == name) {
                Some(it) => {
                    via_alias = true;
                    &it.expr
                }
                None => key_expr,
            }
        } else {
            key_expr
        };
        let Expr::Prop(base, key) = key_expr else {
            return Ok(None);
        };
        let Expr::Var(v) = base.as_ref() else {
            return Ok(None);
        };
        match var {
            None => var = Some(v),
            Some(existing) if existing == v => {}
            Some(_) => return Ok(None),
        }
        if !via_alias {
            any_literal = true;
        }
        keys.push(key.clone());
    }
    let var = var.expect("order_by is non-empty");
    // A literal `ORDER BY var.key` is re-evaluated by `project` on the
    // *projected* rows, where the column `var` may have been rebound
    // (`WITH y AS x ORDER BY x.k`): fuse only when the projection
    // carries `var` through as itself. An alias-resolved key is exempt
    // — its column value was computed from the match row regardless of
    // what else the projection binds.
    if any_literal {
        let mut identity = proj.star;
        for it in &proj.items {
            if &it.name() == var {
                if matches!(&it.expr, Expr::Var(v) if v == var) {
                    identity = true;
                } else {
                    return Ok(None);
                }
            }
        }
        if !identity {
            return Ok(None);
        }
    }
    // `var` must be bound *by this MATCH*, not by the incoming rows.
    if seeds.iter().any(|r| r.contains(var)) {
        return Ok(None);
    }
    Ok(Some(TopKSpec {
        var: var.clone(),
        keys,
        descending: !ascending.expect("order_by is non-empty"),
        keep,
    }))
}

/// The pinned equality values under which a composite definition serves
/// `spec.keys` as an ordered walk: `def` must contain `spec.keys` as a
/// contiguous run, and every column *before* the run needs an equality
/// conjunct (inline pattern prop or top-level `WHERE` conjunct on
/// `spec.var`) whose operand evaluates against `row` — the **empty row**
/// for a seed-shared walk (constants/params only, the §6.2.3 relocation
/// shape with a status filter), or a **concrete seed row** for the
/// per-seed re-pinned walks, where the pin value comes from the seed's
/// own bindings (`{group: g.id} … ORDER BY severity LIMIT 1` under a
/// `WITH g` pipeline). Columns after the run are free: they only refine
/// the walk order beyond the requested keys. Returns the evaluated pin
/// values (empty when the run starts at the leading column); `None` =
/// this definition cannot serve the order under `row`.
pub(crate) fn composite_pin(
    ctx: &EvalCtx<'_>,
    row: &Row,
    inline_props: &[(String, Expr)],
    pushed: &Pushdowns,
    spec: &TopKSpec,
    def: &[String],
) -> Option<Vec<Value>> {
    let j = (0..=def.len().checked_sub(spec.keys.len())?)
        .find(|&j| def[j..j + spec.keys.len()] == spec.keys[..])?;
    let preds = pushed.get(&spec.var);
    let mut pins = Vec::with_capacity(j);
    for col in &def[..j] {
        let expr = inline_props
            .iter()
            .find(|(k, _)| k == col)
            .map(|(_, e)| e)
            .or_else(|| preds.and_then(|p| p.eqs.iter().find(|(k, _)| k == col).map(|(_, e)| e)))?;
        pins.push(eval(ctx, row, expr).ok()?);
    }
    Some(pins)
}

/// The walk half of a fused top-k: which binding site of `spec.var`
/// serves the order, through which index definition, under which pins.
/// `EXPLAIN` renders a `TopK` line exactly when one exists; the executor
/// runs it ([`crate::exec`] keeps the ordered walk, the re-match and the
/// walk budget — its two run-time declines).
pub(crate) struct TopKWalk<'q> {
    pub scope: IndexScope<'q>,
    pub def: Arc<[String]>,
    /// One ordered walk per entry, each re-matched under its own seeds:
    /// a single walk shared by all seeds when the columns before the
    /// order keys pin to operands that evaluate without row bindings,
    /// else one **re-pinned walk per seed row** (`{group: g.id} … ORDER
    /// BY severity LIMIT 1` under a `WITH g` pipeline). Per-seed walks
    /// are sound because EVERY seed yields a pinned walk: each
    /// contributes its own top `keep`, the union is a superset of the
    /// global top-k (every global winner is some seed's local winner)
    /// and the caller's projection re-sorts it.
    pub walks: Vec<(Vec<Value>, &'q [Row])>,
}

/// Decide the walk of a fused top-k: the first binding site of
/// `spec.var` in `patterns` — a node position through each of its stored
/// labels (a label shadowed by a transition variable is not a stored
/// extent), else a single-hop relationship position through its one
/// type — with an index definition whose [`composite_pin`]s resolve,
/// shared or per seed. `None` = no index serves the order; the pair
/// runs (and lowers) unfused.
pub(crate) fn plan_topk_walk<'q>(
    ctx: &EvalCtx<'_>,
    patterns: &'q [PathPattern],
    pushed: &Pushdowns,
    spec: &TopKSpec,
    seeds: &'q [Row],
) -> Option<TopKWalk<'q>> {
    let var = Some(spec.var.as_str());
    let empty = Row::new();
    let site = |scope: IndexScope<'q>, inline_props: &[(String, Expr)]| {
        ctx.view.index_defs(scope).into_iter().find_map(|def| {
            // Pins are resolved up front, so a seed whose pins cannot be
            // evaluated forfeits the definition instead of silently
            // losing its rows.
            let pin = |row| composite_pin(ctx, row, inline_props, pushed, spec, &def);
            let walks = match pin(&empty) {
                Some(pins) => vec![(pins, seeds)],
                None => seeds
                    .iter()
                    .map(|seed| Some((pin(seed)?, std::slice::from_ref(seed))))
                    .collect::<Option<_>>()?,
            };
            Some(TopKWalk { scope, def, walks })
        })
    };
    for p in patterns {
        if let Some(np) = p.nodes().find(|np| np.var.as_deref() == var) {
            let shadowed = |label: &String| seeds.iter().any(|r| r.contains(label));
            let mut stored = np.labels.iter().filter(|l| !shadowed(l));
            return stored.find_map(|label| site(IndexScope::Label(label), &np.props));
        }
        let rels = p.segments.iter().map(|(rp, _)| rp);
        let walk = rels
            .filter(|rp| rp.var.as_deref() == var && rp.hops.is_none())
            .find_map(|rp| match &rp.types[..] {
                [rel_type] => site(IndexScope::RelType(rel_type), &rp.props),
                _ => None,
            });
        if walk.is_some() {
            return walk;
        }
    }
    None
}

// ---------------------------------------------------------------------
// The clause plan
// ---------------------------------------------------------------------

/// Consecutive streaming clauses one chunk passes through as nested calls
/// before the next one collects its input instead: each is a stack frame
/// of the executor's push, and a query text is not bounded in clauses.
const STREAM_DEPTH: usize = 32;

/// One clause of a query, as the executor runs it and `EXPLAIN` prints it.
#[derive(Debug)]
pub struct Step<'q> {
    pub(crate) clause: &'q Clause,
    pub(crate) kind: StepKind<'q>,
    /// A streaming `MATCH` without `WHERE` before a groups fold (not `*`):
    /// the matcher may hand the groups its last hop once per state.
    pub(crate) folds: bool,
    /// Set by [`lower_query`] only: how many of the planned paths it
    /// returns are this `MATCH`'s,
    pub(crate) paths: usize,
    /// the walk of a projection fused with the `MATCH` before it,
    pub(crate) topk: Option<TopKSpec>,
    /// and the node of the last hop that `MATCH` folds into this
    /// projection as its representative plan runs (`_` when anonymous).
    pub(crate) folded: Option<String>,
}

/// How a clause takes its input.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StepKind<'q> {
    /// `MATCH`, `OPTIONAL MATCH`, `WHERE` or `UNWIND`: each chunk passes
    /// straight on.
    Stream,
    /// One of those that collects its whole input first and then streams
    /// it on: every `STREAM_DEPTH`-th clause of a streaming run, and a
    /// `MATCH` the top-k fusion may serve together with the projection
    /// `fuse` after it (the fusion decides from all seed rows).
    Collect { fuse: Option<&'q Projection> },
    /// `WITH` or `RETURN`.
    Project(ProjStep<'q>),
    /// An updating clause: collects its whole input and runs once.
    Barrier,
}

/// A `WITH` or `RETURN` step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProjStep<'q> {
    pub(crate) proj: &'q Projection,
    pub(crate) fold: FoldKind,
    /// The `WHERE` of a `WITH`, over the projected rows.
    pub(crate) filter: Option<&'q Expr>,
    /// The query's last `RETURN`: its columns are the result's,
    pub(crate) returned: bool,
    /// and so are its rows when later clauses move past them.
    pub(crate) tee: bool,
}

/// What a projection folds its input into. A `*` projection holds its
/// input first — its columns are the names bound in any row — and then
/// folds it as its kind says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FoldKind {
    /// No aggregation, `ORDER BY`, `DISTINCT` or `*`, and no collect
    /// point: rows pass straight on.
    Stream,
    /// `ORDER BY … LIMIT`: a bounded heap.
    TopK,
    /// A full sort, `*` or a collect point: the projected rows.
    Rows,
    /// Aggregation or `DISTINCT` (grouping by every item): the groups,
    /// keyed by [`pg_graph::OrderKey`].
    Groups,
}

impl FoldKind {
    /// `collect`: hand nothing on before the input is complete.
    fn of(proj: &Projection, collect: bool) -> FoldKind {
        let sorted = !proj.order_by.is_empty();
        if proj.distinct || proj.items.iter().any(|it| it.expr.has_aggregate()) {
            FoldKind::Groups
        } else if sorted && proj.limit.is_some() {
            FoldKind::TopK
        } else if sorted || proj.star || collect {
            FoldKind::Rows
        } else {
            FoldKind::Stream
        }
    }
}

/// The plan of `clauses`, one [`Step`] per clause: the one place that
/// decides each clause's kind, each projection's fold, the top-k fusion
/// candidates and the collect points.
pub(crate) fn steps(clauses: &[Clause]) -> impl Iterator<Item = Step<'_>> {
    let last_return = clauses.iter().rposition(|c| matches!(c, Clause::Return(_)));
    let mut depth = 0;
    clauses.iter().enumerate().map(move |(i, clause)| {
        let collect = depth == STREAM_DEPTH;
        let next = clauses.get(i + 1);
        let fuse = match (clause, next) {
            (
                Clause::Match {
                    optional: false, ..
                },
                Some(Clause::With(p) | Clause::Return(p)),
            ) if topk_shaped(p) => Some(p),
            _ => None,
        };
        let kind = match clause {
            Clause::With(proj) | Clause::Return(proj) => {
                let with = matches!(clause, Clause::With(_));
                let returned = Some(i) == last_return;
                let tee = returned && next.is_some();
                StepKind::Project(ProjStep {
                    proj,
                    fold: FoldKind::of(proj, collect || tee),
                    filter: proj.where_clause.as_ref().filter(|_| with),
                    returned,
                    tee,
                })
            }
            Clause::Match { .. } | Clause::Where(_) | Clause::Unwind { .. } => {
                if collect || fuse.is_some() {
                    StepKind::Collect { fuse }
                } else {
                    StepKind::Stream
                }
            }
            _ => StepKind::Barrier,
        };
        let groups = |p: &Projection| !p.star && FoldKind::of(p, false) == FoldKind::Groups;
        let folds = matches!(kind, StepKind::Stream)
            && matches!(
                clause,
                Clause::Match {
                    where_clause: None,
                    ..
                }
            )
            && matches!(next, Some(Clause::With(p) | Clause::Return(p)) if groups(p));
        depth = match kind {
            StepKind::Stream => depth + 1,
            StepKind::Project(p) if p.fold == FoldKind::Stream => depth + 1,
            _ => 0,
        };
        Step {
            clause,
            kind,
            folds,
            paths: 0,
            topk: None,
            folded: None,
        }
    })
}

/// The steps of `query` annotated for `EXPLAIN`, and the planned paths
/// of its `MATCH` steps in order. A fusion candidate's projection carries
/// the walk the executor's own top-k decision finds.
///
/// Later clauses are planned from a **representative bound row**: every
/// variable an earlier clause binds is present, bound to `Null`. That is
/// enough for the planner's *shape* decisions (a re-used variable plans as
/// `BoundVar` with fanout annotations instead of being double-counted as a
/// fresh label scan), but it is pessimistic for *value*-dependent access:
/// an operand that dereferences a `Null` binding proves empty at plan
/// time, so such a clause may annotate as `Empty(0)` even though execution
/// (with real values) finds rows. The annotation documents the access
/// path; the row estimate for correlated cross-clause predicates is a
/// lower bound.
pub fn lower_query<'q>(
    ctx: &EvalCtx<'_>,
    query: &'q Query,
) -> Result<(Vec<Step<'q>>, Vec<PhysicalPathPlan>)> {
    let mut steps: Vec<Step<'q>> = steps(&query.clauses).collect();
    let mut planned = Vec::new();
    // Representative seed row: earlier clauses' bindings, as Null.
    let mut bound = Row::new();
    // Labels each pattern variable was declared with, for fanout lookups
    // at unlabeled re-use sites (`MATCH (u:User) MATCH (u)-[:F]->…`).
    let mut hints: HashMap<String, Vec<String>> = HashMap::new();
    for i in 0..steps.len() {
        if let StepKind::Project(p) = steps[i].kind {
            rebind_projection(&mut bound, p.proj);
            // A projection ends the old variables' scope: drop hints
            // for names a later clause may re-introduce fresh.
            hints.retain(|k, _| bound.contains(k));
            continue;
        }
        let patterns = match steps[i].clause {
            Clause::Match { patterns, .. } | Clause::Create { patterns } => &patterns[..],
            Clause::Merge { pattern, .. } => std::slice::from_ref(pattern),
            Clause::Unwind { alias, .. } => {
                bound.set(alias, Value::Null);
                continue;
            }
            _ => continue,
        };
        note_hints(&mut hints, patterns);
        if let Clause::Match { where_clause, .. } = steps[i].clause {
            let pushed = extract_pushdowns(where_clause.as_ref());
            if let StepKind::Collect { fuse: Some(proj) } = steps[i].kind {
                let reps = std::slice::from_ref(&bound);
                let walks =
                    |spec: &TopKSpec| plan_topk_walk(ctx, patterns, &pushed, spec, reps).is_some();
                steps[i + 1].topk = plan_topk_projection(ctx, proj, reps)?.filter(walks);
            }
            let mut paths = plan_patterns(ctx, &bound, patterns, &pushed);
            for path in &mut paths {
                path.apply_hints(ctx, &hints);
            }
            if let Some(StepKind::Project(p)) = steps[i].folds.then(|| steps[i + 1].kind) {
                steps[i + 1].folded = folded_var(&paths, &bound, p.proj);
            }
            steps[i].paths = paths.len();
            planned.extend(paths);
        }
        for v in patterns.iter().flat_map(PathPattern::vars) {
            bound.set(v, Value::Null);
        }
    }
    Ok((steps, planned))
}

/// The node of the last hop a folding `MATCH` (planned as `paths` from
/// `bound`) hands `proj`'s groups by [`last_hop_folds`]; a second position
/// naming a variable binds it before the last stage.
fn folded_var(paths: &[PhysicalPathPlan], bound: &Row, proj: &Projection) -> Option<String> {
    let seg = paths.last()?.path.segments.last()?;
    let positions = || paths.iter().flat_map(|p| p.path.vars());
    let bound = |v: &String| bound.contains(v) || positions().filter(|p| *p == v).count() > 1;
    last_hop_folds(seg, bound, |vars| Grouper::new(&proj.items).folds(vars))
        .then(|| seg.1.var.clone().unwrap_or_else(|| "_".into()))
}

/// Record the labels each node variable is declared with, so a later
/// unlabeled re-use site can still look up degree statistics. First
/// declaration wins (that is the clause that bound the variable).
fn note_hints(hints: &mut HashMap<String, Vec<String>>, patterns: &[PathPattern]) {
    for np in patterns.iter().flat_map(PathPattern::nodes) {
        if let (Some(v), false) = (&np.var, np.labels.is_empty()) {
            hints.entry(v.clone()).or_insert_with(|| np.labels.clone());
        }
    }
}

/// After a `WITH`/`RETURN`, only the projected names survive (`*` keeps
/// everything already bound alongside the explicit items).
fn rebind_projection(bound: &mut Row, proj: &Projection) {
    if !proj.star {
        *bound = Row::new();
    }
    for it in &proj.items {
        bound.set(it.name(), Value::Null);
    }
}

/// A short, stable name for an updating clause.
pub(crate) fn clause_name(c: &Clause) -> &'static str {
    match c {
        Clause::Create { .. } => "Create",
        Clause::Merge { .. } => "Merge",
        Clause::Delete { detach: true, .. } => "DetachDelete",
        Clause::Delete { .. } => "Delete",
        Clause::Set { .. } => "Set",
        Clause::Remove { .. } => "Remove",
        Clause::Foreach { .. } => "Foreach",
        Clause::Abort(_) => "Abort",
        _ => unreachable!("only an updating clause is a barrier"),
    }
}
