//! `EXPLAIN` — render a query's physical plan (planner v4).
//!
//! The report prints the steps the executor runs, one or more lines per
//! step, from [`crate::plan::lower_query`]'s output; no clause kind,
//! access path or estimate is worked out here. `Seed` lines print the
//! [`crate::physical::NodeAccess`] of a planned path — the value the
//! matchers materialize — `Expand` lines its per-hop degree-statistics
//! fanout and running join-output estimate, a projection prints its fold
//! (`Project` or `Aggregate`) and its `WHERE`, and a `TopK` line appears
//! when the fusion decision the executor runs (`plan::plan_topk_walk`)
//! finds an ordered index walk for the `MATCH` + projection pair —
//! otherwise the pair renders unfused (`Project`, `Sort`, `Page`). Two
//! declines remain run-time only and are not rendered: the index refusing
//! an ordered walk over lossy values, and a walk exhausting its candidate
//! budget; both fall back to the heap sort with identical results. For
//! read-only queries the query is also executed once so the report closes
//! with `actual rows` next to the estimate — the estimated-vs-actual gap
//! is what the `join_planning` bench tracks.

use crate::ast::{Clause, PathPattern, ProjItem, Query};
use crate::error::Result;
use crate::expr::EvalCtx;
use crate::parser::parse_query;
use crate::plan::{clause_name, lower_query, ProjStep, Step, StepKind};
use crate::prepared::Prepared;
use crate::row::{Params, QueryOutput};
use crate::unparse::unparse_expr;
use pg_graph::{Direction, GraphView};
use std::fmt::Write as _;

/// Format an estimate: integral values print without a fraction
/// (`12`), fractional ones with one decimal (`38.4`).
fn fmt_est(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.1}")
    }
}

/// `-[:T]->(x:L)`-style rendering of one hop: direction, types, target.
fn fmt_hop(path: &PathPattern, segment: usize) -> String {
    let (rp, np) = &path.segments[segment];
    let (left, right) = match rp.direction {
        Direction::Out => ("-", "->"),
        Direction::In => ("<-", "-"),
        Direction::Both => ("-", "-"),
    };
    let types = if rp.types.is_empty() {
        String::new()
    } else {
        format!(":{}", rp.types.join("|"))
    };
    let target = np.var.as_deref().unwrap_or("_");
    let labels: String = np.labels.iter().map(|l| format!(":{l}")).collect();
    format!("{left}[{types}]{right}({target}{labels})")
}

/// Render the physical plan of `query`. When `executed` is given, the
/// query has been run and the report compares estimated to actual rows.
pub fn render_plan(
    ctx: &EvalCtx<'_>,
    query: &Query,
    executed: Option<&QueryOutput>,
) -> Result<String> {
    let (steps, phys) = lower_query(ctx, query)?;
    let mut out = String::from("Plan\n");
    let mut paths = phys.iter();
    for step in &steps {
        match (&step.kind, step.clause) {
            (StepKind::Project(p), _) => render_projection(&mut out, p, step),
            (StepKind::Barrier, clause) => {
                let _ = writeln!(out, "  Update <{}>", clause_name(clause));
            }
            (
                _,
                Clause::Match {
                    optional,
                    where_clause,
                    ..
                },
            ) => {
                let seed = if *optional { "OptionalSeed" } else { "Seed" };
                for p in paths.by_ref().take(step.paths) {
                    let var = p.path.start.var.as_deref().unwrap_or("_");
                    let (access, est) = (&p.seed, p.seed_est);
                    let _ = writeln!(out, "  {seed} ({var}) access={access} est={est} rows");
                    for (segment, h) in p.hops.iter().enumerate() {
                        let fanout = h.fanout.map_or("?".to_string(), |f| format!("{f:.2}"));
                        let _ = writeln!(
                            out,
                            "  Expand {} fanout={fanout} est={} rows",
                            fmt_hop(&p.path, segment),
                            fmt_est(h.est_rows)
                        );
                    }
                }
                if let Some(predicate) = where_clause {
                    let _ = writeln!(out, "  Filter {}", unparse_expr(predicate));
                }
            }
            (_, Clause::Where(predicate)) => {
                let _ = writeln!(out, "  Filter {}", unparse_expr(predicate));
            }
            (_, Clause::Unwind { alias, .. }) => {
                let _ = writeln!(out, "  Unwind AS {alias}");
            }
            _ => unreachable!("only MATCH, WHERE and UNWIND stream or collect"),
        }
    }
    if !phys.is_empty() {
        let est: f64 = phys.iter().map(|p| p.est_rows()).product();
        let _ = writeln!(out, "estimated match rows: {}", fmt_est(est));
    }
    match executed {
        Some(qo) => {
            let actual = if qo.columns.is_empty() {
                qo.bindings.len()
            } else {
                qo.rows.len()
            };
            let _ = writeln!(out, "actual rows: {actual}");
        }
        None => {
            let _ = writeln!(out, "actual rows: not executed (updating query)");
        }
    }
    Ok(out)
}

/// A `WITH`/`RETURN` step: its fold (and the last hop folded into it),
/// its `WHERE`, then its order — the ordered walk it is fused into, else
/// the sort and the page.
fn render_projection(out: &mut String, step: &ProjStep<'_>, annotated: &Step<'_>) {
    let proj = step.proj;
    let op = if proj.items.iter().any(|it| it.expr.has_aggregate()) {
        "Aggregate"
    } else {
        "Project"
    };
    let distinct = if proj.distinct { " DISTINCT" } else { "" };
    let mut cols: Vec<String> = proj.items.iter().map(ProjItem::name).collect();
    if proj.star {
        cols.insert(0, "*".to_string());
    }
    let folds = match &annotated.folded {
        Some(var) => format!(" folds ({var})"),
        None => String::new(),
    };
    let _ = writeln!(out, "  {op}{distinct} [{}]{folds}", cols.join(", "));
    if let Some(predicate) = step.filter {
        let _ = writeln!(out, "  Filter {}", unparse_expr(predicate));
    }
    if let Some(spec) = &annotated.topk {
        let dir = if spec.descending { "desc" } else { "asc" };
        let (var, keys, keep) = (&spec.var, spec.keys.join("."), spec.keep);
        let _ = writeln!(out, "  TopK {var}.{keys} {dir} keep={keep}");
        return;
    }
    if let Some((_, asc)) = proj.order_by.first() {
        let dir = if *asc { "asc" } else { "desc" };
        let _ = writeln!(out, "  Sort keys={} {dir}", proj.order_by.len());
    }
    if proj.skip.is_some() || proj.limit.is_some() {
        let _ = writeln!(out, "  Page (SKIP/LIMIT)");
    }
}

/// Parse and explain `src` against a read-only view. Read-only queries
/// are executed once for the `actual rows` line; updating queries are
/// planned but not run.
pub fn explain_query(
    view: &dyn GraphView,
    src: &str,
    params: &Params,
    now_ms: i64,
) -> Result<String> {
    let stmt = Prepared::from(parse_query(src)?);
    explain_prepared(view, &stmt, params, now_ms)
}

/// Explain the query of a prepared statement (of an `EXPLAIN` statement:
/// the inner one) under `params`; see [`explain_query`].
pub fn explain_prepared(
    view: &dyn GraphView,
    stmt: &Prepared,
    params: &Params,
    now_ms: i64,
) -> Result<String> {
    let executed = if stmt.is_updating() {
        None
    } else {
        let target = crate::exec::Target::Read(view);
        Some(crate::run_prepared(
            target,
            stmt,
            Vec::new(),
            params,
            now_ms,
        )?)
    };
    let ctx = EvalCtx::new(view, params, now_ms);
    render_plan(&ctx, stmt.query(), executed.as_ref())
}
