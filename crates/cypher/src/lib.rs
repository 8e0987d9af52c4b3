//! # pg-cypher — a Cypher-subset query engine over `pg-graph`
//!
//! Implements the query-language substrate that the PG-Triggers paper
//! assumes: every construct used by the paper's trigger conditions and
//! statements (§6.2, §6.3) plus the standard core of openCypher:
//!
//! * `MATCH` / `OPTIONAL MATCH` with multi-pattern joins, relationship
//!   uniqueness, variable-length paths, and `WHERE`;
//! * `CREATE`, `MERGE` (with `ON CREATE` / `ON MATCH`), `DELETE` /
//!   `DETACH DELETE`, `SET` (properties, labels, `=`, `+=`), `REMOVE`;
//! * `WITH` / `RETURN` with aggregation (`count`, `sum`, `avg`, `min`,
//!   `max`, `collect`), `DISTINCT`, `ORDER BY`, `SKIP`, `LIMIT`, and
//!   post-`WITH` `WHERE`;
//! * `UNWIND`, `FOREACH` (both `|` and the paper's `BEGIN … END` style),
//!   `CASE`, `EXISTS { … }` / `EXISTS (pattern)`, list comprehensions,
//!   parameters, and a library of scalar functions;
//! * the `ABORT` extension clause used by integrity-maintenance triggers.
//!
//! Two execution targets exist: a mutable [`pg_graph::Graph`] (full power)
//! and any read-only [`pg_graph::GraphView`] — the PG-Trigger engine uses
//! the latter to evaluate `BEFORE` conditions against pre-state views.
//!
//! **Transition variables.** A pattern label position whose name is bound in
//! the seed row (e.g. `MATCH (pn:NEWNODES)`) restricts candidates to the
//! bound node(s) instead of a stored label — exactly the behaviour the
//! paper's example triggers rely on.

pub mod ast;
pub mod batch;
pub mod error;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod functions;
pub mod lexer;
pub mod parser;
pub mod pattern;
pub mod physical;
pub mod plan;
pub mod prepared;
pub mod row;
pub mod token;
pub mod unparse;

pub use ast::{Clause, Expr, Query};
pub use error::{CypherError, Result};
pub use exec::{Executor, MatchMode, Target};
pub use explain::{explain_prepared, explain_query};
pub use parser::{parse_expression, parse_query, parse_query_lenient};
pub use plan::{lower_query, Step, TopKSpec};
pub use prepared::{Prepared, StatementCache, StatementClass, STATEMENT_CACHE_CAPACITY};
pub use row::{Params, QueryOutput, Row};
pub use unparse::{rename_vars, unparse_clause, unparse_expr, unparse_query};

use pg_graph::{Graph, GraphView};

/// Parse and run a query against a mutable graph.
pub fn run_query(
    graph: &mut Graph,
    src: &str,
    params: &Params,
    now_ms: i64,
) -> Result<QueryOutput> {
    let q = parse_query(src)?;
    run_ast(graph, &q, Vec::new(), params, now_ms)
}

/// Run a pre-parsed query against a mutable graph, from seed rows.
pub fn run_ast(
    graph: &mut Graph,
    query: &Query,
    seeds: Vec<Row>,
    params: &Params,
    now_ms: i64,
) -> Result<QueryOutput> {
    Executor::new(Target::Write(graph), params, now_ms).run(query, seeds)
}

/// Run a prepared statement's query against `target` from seed rows,
/// reusing its per-`MATCH` preparation (see [`prepared`]).
pub fn run_prepared(
    target: Target<'_>,
    stmt: &Prepared,
    seeds: Vec<Row>,
    params: &Params,
    now_ms: i64,
) -> Result<QueryOutput> {
    Executor::new(target, params, now_ms).run_prepared(stmt, seeds)
}

/// Run a pre-parsed query against a read-only view (updating clauses fail).
pub fn run_read_only(
    view: &dyn GraphView,
    query: &Query,
    seeds: Vec<Row>,
    params: &Params,
    now_ms: i64,
) -> Result<QueryOutput> {
    Executor::new(Target::Read(view), params, now_ms).run(query, seeds)
}
