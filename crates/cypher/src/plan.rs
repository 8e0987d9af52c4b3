//! Logical plans as data (planner v4).
//!
//! The logical layer sits between the AST and the physical access-path
//! decisions of [`crate::physical`]: a query's clauses are lowered to a
//! flat list of [`LogicalOp`]s — `Seed`, `Expand`, `Filter`, `Project`,
//! `Sort`, `TopK`, `Aggregate`, … . A `MATCH` lowers through the very
//! `plan_patterns` call the matchers make ([`crate::pattern`]), and the
//! [`PhysicalPathPlan`]s it returns are the values they materialize, so
//! the `Seed`/`Expand` lines `EXPLAIN` prints are the matcher's plan by
//! construction. The clause loop around them (what each projection
//! lowers to) still mirrors `exec::run_clauses` by convention.
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
use crate::error::{CypherError, Result};
use crate::expr::{eval, EvalCtx};
use crate::pattern::{extract_pushdowns, pattern_vars, plan_patterns, Pushdowns};
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
pub(crate) fn topk_shaped(proj: &Projection) -> bool {
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
// Logical plan IR
// ---------------------------------------------------------------------

/// One operator of a logical plan. A `MATCH` clause lowers to one
/// [`LogicalOp::Seed`] plus a chain of [`LogicalOp::Expand`]s per planned
/// (re-rooted, join-ordered) path, followed by a [`LogicalOp::Filter`]
/// for the residual `WHERE`; projections lower to
/// `Aggregate`/`Project`/`Sort`/`TopK`/`Page` as their shape dictates.
#[derive(Debug, Clone)]
pub enum LogicalOp {
    /// Enumerate candidates for one planned path's anchor position.
    Seed {
        optional: bool,
        pattern: PathPattern,
    },
    /// Expand one hop (`pattern.segments[segment]`) from the rows of the
    /// previous operator.
    Expand {
        pattern: PathPattern,
        segment: usize,
    },
    /// Residual predicate evaluation (the full `WHERE`).
    Filter { predicate: Expr },
    /// Row projection (`WITH` / `RETURN`), possibly distinct.
    Project {
        distinct: bool,
        columns: Vec<String>,
    },
    /// Grouped aggregation (`count`/`sum`/…).
    Aggregate { columns: Vec<String> },
    /// Full or bounded (`LIMIT`-capped heap) sort by the `ORDER BY` keys.
    Sort { keys: usize, descending: bool },
    /// An index-served fused top-k walk replacing Seed/Expand enumeration.
    TopK { spec: TopKSpec },
    /// `SKIP` / `LIMIT` application.
    Page,
    /// `UNWIND`.
    Unwind { alias: String },
    /// An updating or otherwise opaque clause, carried through verbatim.
    Update { what: &'static str },
}

/// A whole query lowered to logical operators.
#[derive(Debug, Clone, Default)]
pub struct LogicalPlan {
    pub ops: Vec<LogicalOp>,
}

/// Lower one `MATCH` clause: plan it from `seed` (the representative seed
/// row — execution plans per seed row, which can only refine the order),
/// then emit `Seed`/`Expand` per planned path and a trailing `Filter`.
/// Returns the planned paths — the values a matcher would run — with
/// `label_hints` applied to their estimates.
pub(crate) fn lower_match(
    ctx: &EvalCtx<'_>,
    seed: &Row,
    optional: bool,
    patterns: &[PathPattern],
    where_clause: Option<&Expr>,
    label_hints: &HashMap<String, Vec<String>>,
    plan: &mut LogicalPlan,
) -> Vec<PhysicalPathPlan> {
    let pushed = extract_pushdowns(where_clause);
    let mut planned = plan_patterns(ctx, seed, patterns, &pushed);
    for path in &mut planned {
        path.apply_hints(ctx, label_hints);
        plan.ops.push(LogicalOp::Seed {
            optional,
            pattern: path.path.clone(),
        });
        for seg in 0..path.path.segments.len() {
            plan.ops.push(LogicalOp::Expand {
                pattern: path.path.clone(),
                segment: seg,
            });
        }
    }
    if let Some(w) = where_clause {
        plan.ops.push(LogicalOp::Filter {
            predicate: w.clone(),
        });
    }
    planned
}

/// Lower a projection (`WITH` / `RETURN`); `fused` carries the top-k spec
/// when the preceding `MATCH` was fused into an ordered index walk.
pub(crate) fn lower_projection(
    proj: &Projection,
    fused: Option<&TopKSpec>,
    plan: &mut LogicalPlan,
) {
    let columns: Vec<String> = proj.items.iter().map(|it| it.name()).collect();
    if proj.items.iter().any(|it| it.expr.has_aggregate()) {
        plan.ops.push(LogicalOp::Aggregate { columns });
    } else {
        plan.ops.push(LogicalOp::Project {
            distinct: proj.distinct,
            columns,
        });
    }
    if let Some(spec) = fused {
        plan.ops.push(LogicalOp::TopK { spec: spec.clone() });
        return;
    }
    if !proj.order_by.is_empty() {
        plan.ops.push(LogicalOp::Sort {
            keys: proj.order_by.len(),
            descending: proj.order_by.first().is_some_and(|(_, asc)| !*asc),
        });
    }
    if proj.skip.is_some() || proj.limit.is_some() {
        plan.ops.push(LogicalOp::Page);
    }
}

/// Lower a whole query to its logical plan. Mirrors the executor's clause
/// loop — the `MATCH` + `WITH`/`RETURN` top-k fusion is the executor's own
/// decision (`plan_topk_projection`, `plan_topk_walk`), a pair without a
/// walk lowers exactly like the unfused clauses — so `EXPLAIN` prints
/// what `run_clauses` will do. Also returns, aligned with the `Seed` ops
/// in order, each planned path (seed access and join-output estimates).
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
pub fn lower_query(
    ctx: &EvalCtx<'_>,
    query: &Query,
) -> Result<(LogicalPlan, Vec<PhysicalPathPlan>)> {
    let mut plan = LogicalPlan::default();
    let mut seeds_out: Vec<PhysicalPathPlan> = Vec::new();
    let clauses = &query.clauses;
    // Representative seed row: earlier clauses' bindings, as Null.
    let mut bound = Row::new();
    let bind_patterns = |bound: &mut Row, patterns: &[PathPattern]| {
        for v in pattern_vars(patterns) {
            if !bound.contains(&v) {
                bound.set(v, Value::Null);
            }
        }
    };
    // Labels each pattern variable was declared with, for fanout lookups
    // at unlabeled re-use sites (`MATCH (u:User) MATCH (u)-[:F]->…`).
    let mut hints: HashMap<String, Vec<String>> = HashMap::new();
    let mut i = 0;
    while i < clauses.len() {
        match &clauses[i] {
            Clause::Match {
                optional,
                patterns,
                where_clause,
            } => {
                // The fusion decision the executor makes, over the
                // representative row: projection shape, then the walk.
                let reps = std::slice::from_ref(&bound);
                let fused = match clauses.get(i + 1) {
                    Some(Clause::With(p) | Clause::Return(p)) if !optional => {
                        plan_topk_projection(ctx, p, reps)?
                            .filter(|spec| {
                                let pushed = extract_pushdowns(where_clause.as_ref());
                                plan_topk_walk(ctx, patterns, &pushed, spec, reps).is_some()
                            })
                            .map(|spec| (p, spec))
                    }
                    _ => None,
                };
                note_hints(&mut hints, patterns);
                let planned = lower_match(
                    ctx,
                    &bound,
                    *optional,
                    patterns,
                    where_clause.as_ref(),
                    &hints,
                    &mut plan,
                );
                seeds_out.extend(planned);
                bind_patterns(&mut bound, patterns);
                if let Some((p, spec)) = fused {
                    lower_projection(p, Some(&spec), &mut plan);
                    rebind_projection(&mut bound, p);
                    i += 2;
                    continue;
                }
            }
            Clause::With(p) | Clause::Return(p) => {
                lower_projection(p, None, &mut plan);
                rebind_projection(&mut bound, p);
                // A projection ends the old variables' scope: drop hints
                // for names a later clause may re-introduce fresh.
                hints.retain(|k, _| bound.contains(k));
            }
            Clause::Where(pred) => plan.ops.push(LogicalOp::Filter {
                predicate: pred.clone(),
            }),
            Clause::Unwind { alias, .. } => {
                plan.ops.push(LogicalOp::Unwind {
                    alias: alias.clone(),
                });
                if !bound.contains(alias) {
                    bound.set(alias.clone(), Value::Null);
                }
            }
            other => {
                plan.ops.push(LogicalOp::Update {
                    what: clause_name(other),
                });
                match other {
                    Clause::Create { patterns } => {
                        note_hints(&mut hints, patterns);
                        bind_patterns(&mut bound, patterns);
                    }
                    Clause::Merge { pattern, .. } => {
                        note_hints(&mut hints, std::slice::from_ref(pattern));
                        bind_patterns(&mut bound, std::slice::from_ref(pattern));
                    }
                    _ => {}
                }
            }
        }
        i += 1;
    }
    Ok((plan, seeds_out))
}

/// Record the labels each node variable is declared with, so a later
/// unlabeled re-use site can still look up degree statistics. First
/// declaration wins (that is the clause that bound the variable).
fn note_hints(hints: &mut HashMap<String, Vec<String>>, patterns: &[PathPattern]) {
    let mut note = |np: &crate::ast::NodePattern| {
        if let Some(v) = &np.var {
            if !np.labels.is_empty() && !hints.contains_key(v) {
                hints.insert(v.clone(), np.labels.clone());
            }
        }
    };
    for p in patterns {
        note(&p.start);
        for (_, np) in &p.segments {
            note(np);
        }
    }
}

/// After a `WITH`/`RETURN`, only the projected names survive (`*` keeps
/// everything already bound alongside the explicit items).
fn rebind_projection(bound: &mut Row, proj: &Projection) {
    let mut next = if proj.star { bound.clone() } else { Row::new() };
    for it in &proj.items {
        let name = it.name();
        if !next.contains(&name) {
            next.set(name, Value::Null);
        }
    }
    *bound = next;
}

/// A short, stable name for an opaque clause.
fn clause_name(c: &Clause) -> &'static str {
    match c {
        Clause::Match { .. } => "Match",
        Clause::Where(_) => "Where",
        Clause::Unwind { .. } => "Unwind",
        Clause::With(_) => "With",
        Clause::Return(_) => "Return",
        Clause::Create { .. } => "Create",
        Clause::Merge { .. } => "Merge",
        Clause::Delete { detach: true, .. } => "DetachDelete",
        Clause::Delete { .. } => "Delete",
        Clause::Set { .. } => "Set",
        Clause::Remove { .. } => "Remove",
        Clause::Foreach { .. } => "Foreach",
        Clause::Abort(_) => "Abort",
    }
}
