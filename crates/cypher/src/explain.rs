//! `EXPLAIN` — render a query's physical plan (planner v4).
//!
//! The report only formats [`crate::plan::lower_query`]'s output; no
//! access path or estimate is worked out here. `Seed` lines print the
//! [`crate::physical::NodeAccess`] of a planned path — the value the
//! matchers materialize — `Expand` lines its per-hop degree-statistics
//! fanout and running join-output estimate, and a `TopK` line appears
//! when the fusion decision the executor runs (`plan::plan_topk_walk`)
//! finds an ordered index walk for the `MATCH` + projection pair —
//! otherwise the pair renders unfused (`Project`, `Sort`, `Page`). Two
//! declines remain run-time only and are not rendered: the index refusing
//! an ordered walk over lossy values, and a walk exhausting its candidate
//! budget; both fall back to the heap sort with identical results. For
//! read-only queries the query is also executed once so the report closes
//! with `actual rows` next to the estimate — the estimated-vs-actual gap
//! is what the `join_planning` bench tracks.

use crate::ast::{PathPattern, Query};
use crate::error::Result;
use crate::expr::EvalCtx;
use crate::parser::parse_query;
use crate::plan::{lower_query, LogicalOp};
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
    let (plan, phys) = lower_query(ctx, query)?;
    let mut out = String::new();
    out.push_str("Plan\n");
    let mut pi = 0usize;
    for op in &plan.ops {
        match op {
            LogicalOp::Seed { optional, .. } => {
                let p = &phys[pi];
                pi += 1;
                let opt = if *optional { "OptionalSeed" } else { "Seed" };
                let _ = writeln!(
                    out,
                    "  {opt} ({}) access={} est={} rows",
                    p.path.start.var.as_deref().unwrap_or("_"),
                    p.seed,
                    p.seed_est
                );
            }
            LogicalOp::Expand { pattern, segment } => {
                // `pi` has already advanced past this path's Seed.
                let h = &phys[pi - 1].hops[*segment];
                let fanout = match h.fanout {
                    Some(f) => format!("{f:.2}"),
                    None => "?".to_string(),
                };
                let _ = writeln!(
                    out,
                    "  Expand {} fanout={fanout} est={} rows",
                    fmt_hop(pattern, *segment),
                    fmt_est(h.est_rows)
                );
            }
            LogicalOp::Filter { predicate } => {
                let _ = writeln!(out, "  Filter {}", unparse_expr(predicate));
            }
            LogicalOp::Project { distinct, columns } => {
                let d = if *distinct {
                    "Project DISTINCT"
                } else {
                    "Project"
                };
                let cols = if columns.is_empty() {
                    "*".to_string()
                } else {
                    columns.join(", ")
                };
                let _ = writeln!(out, "  {d} [{cols}]");
            }
            LogicalOp::Aggregate { columns } => {
                let _ = writeln!(out, "  Aggregate [{}]", columns.join(", "));
            }
            LogicalOp::Sort { keys, descending } => {
                let dir = if *descending { "desc" } else { "asc" };
                let _ = writeln!(out, "  Sort keys={keys} {dir}");
            }
            LogicalOp::TopK { spec } => {
                let dir = if spec.descending { "desc" } else { "asc" };
                let _ = writeln!(
                    out,
                    "  TopK {}.{} {dir} keep={}",
                    spec.var,
                    spec.keys.join("."),
                    spec.keep
                );
            }
            LogicalOp::Page => {
                let _ = writeln!(out, "  Page (SKIP/LIMIT)");
            }
            LogicalOp::Unwind { alias } => {
                let _ = writeln!(out, "  Unwind AS {alias}");
            }
            LogicalOp::Update { what } => {
                let _ = writeln!(out, "  Update <{what}>");
            }
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
