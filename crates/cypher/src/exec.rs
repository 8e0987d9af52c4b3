//! Clause-pipeline execution, including updating clauses and projections.
//!
//! ## The pipeline
//!
//! [`Executor::run`] builds one stage per [`Step`] of the query's clause
//! plan — `plan::steps` decides which clauses stream, fold or collect —
//! and pushes rows through them in chunks of at most [`CHUNK_ROWS`] rows.
//! A streaming clause passes each chunk straight on (a `MATCH` hands its
//! matches on as the matcher produces them, see [`crate::batch`]), and a
//! satisfied `LIMIT` stops its upstream. A folding `WITH`/`RETURN` keeps
//! only its own state (the groups, which `DISTINCT` is too, the top-k heap
//! or the sorted rows); an updating clause, and a `MATCH` the top-k fusion
//! below may serve, collects its whole input. Both run once their input is
//! exhausted. Groups, `DISTINCT`, `count`/`collect(DISTINCT …)` and
//! `ORDER BY` all key by [`OrderKey`], so one value order
//! ([`Value::cmp_order`]) decides what ties and what sorts first. A
//! `MATCH` whose step `folds` hands the groups after it its last hop once
//! per state (`Grouper::fold`; `docs/planner.md`, *Folded last hop*);
//! [`MatchMode::Reference`] never folds.
//!
//! Clauses finish in order, so a barrier runs after every clause before it
//! has seen all of its rows and before any clause after it sees one: the
//! semantics are clause-at-a-time, and rows arrive everywhere in the order
//! the clause-at-a-time executor produced them. A long run of streaming
//! clauses collects at regular collect points, so the push — one stack
//! frame per streaming clause — stays shallow however many clauses a query
//! text holds.
//!
//! ## Top-k (`ORDER BY … LIMIT k`) execution — planner v3
//!
//! Two optimizations make the paper's §6.2.3 relocation shape
//! (`WITH ct, c, hc, pn ORDER BY ct.distance LIMIT 1`) cheap:
//!
//! 1. **Bounded top-k selection.** A projection with `ORDER BY` *and* a
//!    constant `LIMIT` keeps only the best `SKIP + LIMIT` rows in a
//!    bounded `BinaryHeap` (O(n log k)) instead of sorting every row. The
//!    input index is the final tiebreaker of the one row order both use,
//!    so the result is identical to the stable full sort it replaces.
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
use crate::batch::{match_patterns_batch, Sink};
use crate::error::{CypherError, Result};
use crate::expr::{eval, EvalCtx};
use crate::functions::{is_aggregate, Accumulator};
use crate::pattern::{extract_pushdowns, match_patterns, pattern_vars, Pushdowns};
use crate::plan::{
    plan_topk_projection, plan_topk_walk, steps, FoldKind, ProjStep, Step, StepKind,
};
use crate::prepared::{MatchPrep, Prepared};
use crate::row::{Params, QueryOutput, Row};
use pg_graph::{
    Direction, Graph, GraphView, IndexScope, NodeId, OrderKey, PropertyMap, RelId, Value,
};
use std::borrow::Cow;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::ControlFlow;

/// Rows per chunk handed from one clause to the next, and partial matches
/// per stage buffer of the matcher: what bounds the rows a
/// streaming query holds in flight. Sized so a chunk amortises the per-call
/// work of a stage; not a knob.
pub const CHUNK_ROWS: usize = 1024;

/// Whether a clause wants more rows: `Break` once its `LIMIT` is satisfied.
pub(crate) type Flow = ControlFlow<()>;

/// Where a clause hands its output chunks.
type Emit<'e> = dyn FnMut(Vec<Row>) -> Result<Flow> + 'e;

/// One `ORDER BY` key: [`Value::cmp_order`], ascending or descending.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum SortKey {
    Asc(OrderKey),
    Desc(Reverse<OrderKey>),
}

/// A projected row with its `ORDER BY` keys and input index, ordered by
/// the keys and then the index: the order a stable sort produces.
struct Keyed {
    keys: Vec<SortKey>,
    idx: usize,
    row: Row,
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        (&self.keys, self.idx).cmp(&(&other.keys, other.idx))
    }
}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Keyed {}

/// Bounded top-k selection: the `keep` smallest [`Keyed`] rows, the worst
/// kept row at the root of a max-heap, O(n log k).
struct TopKRows {
    keep: usize,
    heap: BinaryHeap<Keyed>,
}

impl TopKRows {
    fn new(keep: usize) -> Self {
        TopKRows {
            keep,
            heap: BinaryHeap::with_capacity(keep.min(1024)),
        }
    }

    fn push(&mut self, item: Keyed) {
        if self.heap.len() < self.keep {
            self.heap.push(item);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if item < *worst {
                *worst = item;
            }
        }
    }

    fn into_sorted_rows(self) -> Vec<Row> {
        let sorted = self.heap.into_sorted_vec();
        sorted.into_iter().map(|k| k.row).collect()
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

/// How `MATCH` groups its seed rows in the one matcher, the stage pipeline
/// of [`crate::batch`]. [`MatchMode::Batched`] (the default) plans once
/// for each run of consecutive seeds that bind the same names and hold
/// equal values for every name planning reads, and runs the run as one
/// group, sharing seed-candidate vectors and memoizing hop expansions
/// where the liveness analysis allows; [`MatchMode::Reference`] plans
/// every seed on its own and runs it as its own group, which shares
/// nothing — the executor twin that checks the runs and the sharing. Both
/// produce identical rows in identical order. `MERGE`, `EXISTS` and the
/// top-k re-match run one seed at a time, where the two agree by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    #[default]
    Batched,
    Reference,
}

/// One step of a running pipeline and what it holds between chunks.
enum Stage<'q> {
    Project(Projector<'q>),
    /// Any other step, and the input it collected so far (none when it
    /// streams).
    Clause(Step<'q>, Vec<Row>),
}

impl<'q> Stage<'q> {
    fn new(step: Step<'q>) -> Self {
        match step.kind {
            StepKind::Project(p) => Stage::Project(Projector::new(p)),
            _ => Stage::Clause(step, Vec::new()),
        }
    }
}

/// Append `rows` to `dst`, reusing `rows`' allocation when `dst` is empty.
fn append(dst: &mut Vec<Row>, rows: Vec<Row>) {
    if dst.is_empty() {
        *dst = rows;
    } else {
        dst.extend(rows);
    }
}

/// Hand `rows` to `f` in chunks of at most [`CHUNK_ROWS`], until it breaks.
fn in_chunks(rows: Vec<Row>, mut f: impl FnMut(Vec<Row>) -> Result<Flow>) -> Result<Flow> {
    if rows.len() <= CHUNK_ROWS {
        return f(rows);
    }
    let mut rows = rows.into_iter();
    loop {
        let chunk: Vec<Row> = rows.by_ref().take(CHUNK_ROWS).collect();
        if chunk.is_empty() {
            return Ok(Flow::Continue(()));
        }
        if f(chunk)?.is_break() {
            return Ok(Flow::Break(()));
        }
    }
}

/// Rows on their way to the next clause, handed on every [`CHUNK_ROWS`].
struct Chunker<'e, 'f> {
    buf: Vec<Row>,
    emit: &'e mut Emit<'f>,
}

impl<'e, 'f> Chunker<'e, 'f> {
    fn new(emit: &'e mut Emit<'f>) -> Self {
        Chunker {
            buf: Vec::new(),
            emit,
        }
    }

    fn push(&mut self, row: Row) -> Result<Flow> {
        self.buf.push(row);
        if self.buf.len() < CHUNK_ROWS {
            return Ok(Flow::Continue(()));
        }
        (self.emit)(std::mem::take(&mut self.buf))
    }

    fn finish(self) -> Result<Flow> {
        if self.buf.is_empty() {
            return Ok(Flow::Continue(()));
        }
        (self.emit)(self.buf)
    }
}

/// Where a `MATCH` hands its matches: the next clause's chunks, or the
/// groups of the projection after it (see [`Step::folds`]).
enum Out<'e, 'f> {
    Rows(Chunker<'e, 'f>),
    Groups(&'e mut Projector<'f>),
}

impl Out<'_, '_> {
    fn push(&mut self, ctx: &EvalCtx<'_>, row: Row) -> Result<Flow> {
        match self {
            Out::Rows(chunk) => chunk.push(row),
            Out::Groups(p) => p.groups(ctx)?.push(ctx, row).map(|()| Flow::Continue(())),
        }
    }
}

/// A `MATCH`'s matches on their way to [`Out`]. Matches arrive in seed
/// order, so an `OPTIONAL MATCH` seed that matched nothing is null-bound
/// in its place once a later seed's match arrives.
struct MatchOut<'r, 'e, 'f> {
    ctx: &'r EvalCtx<'r>,
    seeds: &'r [Row],
    /// The `OPTIONAL MATCH` variables, bound to null.
    nulls: Option<Row>,
    /// Seeds before `settled` have had their matches or their null row.
    settled: usize,
    out: Out<'e, 'f>,
}

impl MatchOut<'_, '_, '_> {
    /// Hand on the seeds before `si` that matched nothing; `si` is settled.
    fn settle(&mut self, si: usize) -> Result<Flow> {
        let Some(nulls) = &self.nulls else {
            return Ok(Flow::Continue(()));
        };
        for seed in &self.seeds[self.settled.min(si)..si] {
            let mut r2 = seed.clone();
            r2.merge_missing(nulls);
            if self.out.push(self.ctx, r2)?.is_break() {
                return Ok(Flow::Break(()));
            }
        }
        self.settled = si + 1;
        Ok(Flow::Continue(()))
    }
}

impl Sink for MatchOut<'_, '_, '_> {
    fn row(&mut self, si: usize, row: Row) -> Result<Flow> {
        if self.settle(si)?.is_break() {
            return Ok(Flow::Break(()));
        }
        self.out.push(self.ctx, row)
    }

    fn folds(&self, vars: [Option<&String>; 2]) -> bool {
        let Out::Groups(p) = &self.out else {
            return false;
        };
        matches!(&p.fold, Fold::Groups(groups) if groups.folds(vars))
    }

    fn fold(
        &mut self,
        si: usize,
        row: &Row,
        vars: [Option<&String>; 2],
        cands: &[(RelId, NodeId)],
    ) -> Result<Flow> {
        let flow = self.settle(si)?;
        if let (Flow::Continue(()), Out::Groups(p)) = (flow, &mut self.out) {
            p.groups(self.ctx)?.fold(self.ctx, row, vars, cands)?;
        }
        Ok(flow)
    }
}

/// What a clause list leaves behind besides its final rows: the columns of
/// its last `RETURN`, with that `RETURN`'s rows when later clauses moved
/// past them (otherwise they are the final rows).
type Returned = Option<(Vec<String>, Option<Vec<Row>>)>;

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

    fn ctx(&self) -> EvalCtx<'_> {
        EvalCtx::new(self.view(), self.params, self.now_ms)
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
        let seeds = if seeds.is_empty() {
            vec![Row::new()]
        } else {
            seeds
        };
        let (bindings, returned) = self.run_clauses(&query.clauses, seeds)?;
        let mut qo = QueryOutput {
            bindings,
            ..QueryOutput::default()
        };
        if let Some((columns, teed)) = returned {
            let values = |r: &Row| -> Vec<Value> {
                let value = |c: &String| r.get(c).cloned().unwrap_or(Value::Null);
                columns.iter().map(value).collect()
            };
            qo.rows = teed
                .as_ref()
                .unwrap_or(&qo.bindings)
                .iter()
                .map(values)
                .collect();
            qo.columns = columns;
        }
        Ok(qo)
    }

    /// Run `clauses` as one pipeline over `rows`: the final rows, and what
    /// the last `RETURN` returned.
    fn run_clauses(&mut self, clauses: &[Clause], rows: Vec<Row>) -> Result<(Vec<Row>, Returned)> {
        let mut stages: Vec<Stage<'_>> = steps(clauses).map(Stage::new).collect();
        // A break only says that no more input is wanted: there is none.
        let mut out = Vec::new();
        let _ = in_chunks(rows, |chunk| self.push(&mut stages, &mut out, chunk))?;
        for i in 0..stages.len() {
            let (stage, rest) = stages[i..].split_first_mut().expect("i < len");
            let _ = self.finish(stage, rest, &mut out)?;
        }
        let returned = stages.iter_mut().find_map(|stage| match stage {
            Stage::Project(p) if p.step.returned => {
                Some((std::mem::take(&mut p.shape.columns), p.tee.take()))
            }
            _ => None,
        });
        Ok((out, returned))
    }

    /// Push one chunk into `stages[0]`; past the last stage rows land in
    /// `out`.
    fn push(&self, stages: &mut [Stage<'_>], out: &mut Vec<Row>, rows: Vec<Row>) -> Result<Flow> {
        if rows.is_empty() {
            return Ok(Flow::Continue(()));
        }
        let Some((stage, rest)) = stages.split_first_mut() else {
            append(out, rows);
            return Ok(Flow::Continue(()));
        };
        let mut next = |chunk: Vec<Row>| self.push(rest, out, chunk);
        match stage {
            Stage::Project(p) => p.push(&self.ctx(), rows, &mut next),
            Stage::Clause(step, _) if matches!(step.kind, StepKind::Stream) => {
                // A folding `MATCH` feeds the groups after it directly.
                match rest.first_mut() {
                    Some(Stage::Project(p))
                        if step.folds && self.match_mode == MatchMode::Batched =>
                    {
                        self.stream_match(&self.ctx(), step.clause, rows, Out::Groups(p))
                    }
                    _ => self.stream(step.clause, rows, &mut |chunk| self.push(rest, out, chunk)),
                }
            }
            Stage::Clause(_, input) => {
                append(input, rows);
                Ok(Flow::Continue(()))
            }
        }
    }

    /// End of input for `stage`: a sink hands on its result, a barrier runs
    /// and hands on its output, both into `rest`.
    fn finish(
        &mut self,
        stage: &mut Stage<'_>,
        rest: &mut [Stage<'_>],
        out: &mut Vec<Row>,
    ) -> Result<Flow> {
        let rows = match stage {
            Stage::Project(p) => p.finish(&self.ctx())?,
            Stage::Clause(step, input) => {
                let input = std::mem::take(input);
                match step.kind {
                    StepKind::Stream => return Ok(Flow::Continue(())),
                    StepKind::Barrier => self.run_barrier(step.clause, input)?,
                    _ => match self.try_indexed_topk(step, &input)? {
                        Some(matched) => matched,
                        None => {
                            let clause = step.clause;
                            return in_chunks(input, |chunk| {
                                self.stream(clause, chunk, &mut |rows| self.push(rest, out, rows))
                            });
                        }
                    },
                }
            }
        };
        in_chunks(rows, |chunk| self.push(rest, out, chunk))
    }

    /// Pass one chunk through a streaming `MATCH`, `WHERE` or `UNWIND`.
    fn stream(&self, clause: &Clause, mut rows: Vec<Row>, emit: &mut Emit<'_>) -> Result<Flow> {
        let ctx = self.ctx();
        match clause {
            Clause::Match { .. } => {
                self.stream_match(&ctx, clause, rows, Out::Rows(Chunker::new(emit)))
            }
            Clause::Where(pred) => {
                let mut kept = 0;
                for i in 0..rows.len() {
                    if eval(&ctx, &rows[i], pred)?.is_truthy() {
                        rows.swap(kept, i);
                        kept += 1;
                    }
                }
                rows.truncate(kept);
                emit(rows)
            }
            Clause::Unwind { expr, alias } => {
                let mut chunk = Chunker::new(emit);
                for row in &rows {
                    let items = match eval(&ctx, row, expr)? {
                        Value::Null => continue,
                        Value::List(items) => items,
                        single => vec![single],
                    };
                    for item in items {
                        let mut r2 = row.clone_with_room(1);
                        r2.set(alias, item);
                        if chunk.push(r2)?.is_break() {
                            return Ok(Flow::Break(()));
                        }
                    }
                }
                chunk.finish()
            }
            _ => unreachable!("only MATCH, WHERE and UNWIND stream"),
        }
    }

    /// A `MATCH` over one chunk of seed rows, handing matches to `out` as
    /// the matcher produces them.
    fn stream_match(
        &self,
        ctx: &EvalCtx<'_>,
        clause: &Clause,
        rows: Vec<Row>,
        out: Out<'_, '_>,
    ) -> Result<Flow> {
        let Clause::Match {
            optional,
            patterns,
            where_clause,
        } = clause
        else {
            unreachable!("a MATCH streams through here");
        };
        let where_clause = where_clause.as_ref();
        let nulls = optional.then(|| {
            let vars = match self.match_prep(clause) {
                Some(prep) => Cow::Borrowed(&prep.vars[..]),
                None => Cow::Owned(pattern_vars(patterns)),
            };
            Row::from_pairs(vars.iter().map(|v| (v, Value::Null)))
        });
        let mut sink = MatchOut {
            ctx,
            seeds: &rows,
            nulls,
            settled: 0,
            out,
        };
        let flow = match_patterns_batch(
            ctx,
            &rows,
            patterns,
            where_clause,
            &self.pushdowns(clause, where_clause),
            self.match_mode,
            &mut sink,
        )?;
        if flow.is_break() || sink.settle(rows.len())?.is_break() {
            return Ok(Flow::Break(()));
        }
        match sink.out {
            Out::Rows(chunk) => chunk.finish(),
            Out::Groups(_) => Ok(Flow::Continue(())),
        }
    }

    /// Execute a fused index-served top-k `MATCH` — the walk
    /// [`plan_topk_walk`] decided: for each walked item, bind `spec.var`
    /// and re-match the full pattern under the walk's seeds, each walk
    /// stopping at its own `spec.keep` rows. Returns the matched binding
    /// rows (a superset of the final top-k, in order-key order) or `None`
    /// when fusion declined — not a fusion candidate, no walk planned, the
    /// index refuses an ordered walk (lossy values), or the candidate
    /// budget ran dry — and the caller must run the `MATCH` unfused.
    fn try_indexed_topk(&self, step: &Step<'_>, seeds: &[Row]) -> Result<Option<Vec<Row>>> {
        let (clause, StepKind::Collect { fuse: Some(proj) }) = (step.clause, step.kind) else {
            return Ok(None);
        };
        let Clause::Match {
            patterns,
            where_clause,
            ..
        } = clause
        else {
            return Ok(None);
        };
        let where_clause = where_clause.as_ref();
        let ctx = self.ctx();
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
                    // Every row of one walked item carries the same order
                    // keys, so the walk's first `keep` rows are its top.
                    let mut take = |_: usize, row: Row| -> Result<Flow> {
                        out.push(row);
                        Ok(match out.len() - produced >= spec.keep {
                            true => Flow::Break(()),
                            false => Flow::Continue(()),
                        })
                    };
                    let (s2, mode) = (std::slice::from_ref(&s2), MatchMode::Batched);
                    let matched = match_patterns_batch(
                        &ctx,
                        s2,
                        patterns,
                        where_clause,
                        &pushed,
                        mode,
                        &mut take,
                    )?;
                    if matched.is_break() {
                        break;
                    }
                }
                if out.len() - produced >= spec.keep {
                    break;
                }
            }
        }
        Ok(Some(out))
    }

    /// Run an updating clause over its whole input.
    fn run_barrier(&mut self, clause: &Clause, rows: Vec<Row>) -> Result<Vec<Row>> {
        match clause {
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
                        let ctx = self.ctx();
                        match_patterns(&ctx, &row, std::slice::from_ref(pattern), None)?
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
                                let tv = eval(&self.ctx(), row, target)?;
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
                    let ctx = self.ctx();
                    for row in &rows {
                        for e in exprs {
                            collect_delete_targets(eval(&ctx, row, e)?, &mut nodes, &mut rels)?;
                        }
                    }
                }
                let g = self.graph_mut("DELETE")?;
                for r in rels {
                    if g.rel(r).is_some() {
                        g.delete_rel(r)?;
                    }
                }
                for n in nodes {
                    if g.node(n).is_some() {
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
                    let items = match eval(&self.ctx(), row, list)? {
                        Value::Null => continue,
                        Value::List(items) => items,
                        single => vec![single],
                    };
                    for item in items {
                        let mut inner = row.clone_with_room(1);
                        inner.set(var, item);
                        self.run_clauses(body, vec![inner])?;
                    }
                }
                Ok(rows)
            }
            Clause::Abort(msg_expr) => {
                if let Some(first) = rows.first() {
                    let msg = match eval(&self.ctx(), first, msg_expr)? {
                        Value::Str(s) => s,
                        other => other.to_string(),
                    };
                    return Err(CypherError::Aborted(msg));
                }
                Ok(rows)
            }
            _ => unreachable!("not an updating clause"),
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
                                    let stale: Vec<String> = self
                                        .view()
                                        .node(n)
                                        .into_iter()
                                        .flat_map(|rec| rec.props.keys())
                                        .filter(|k| !map.contains_key(*k))
                                        .cloned()
                                        .collect();
                                    let g = self.graph_mut("SET")?;
                                    for k in stale {
                                        g.remove_node_prop(n, &k)?;
                                    }
                                }
                                let g = self.graph_mut("SET")?;
                                for (k, val) in map {
                                    g.set_node_prop(n, k, val)?;
                                }
                            }
                            Value::Rel(r) => {
                                if replace {
                                    let stale: Vec<String> = self
                                        .view()
                                        .rel(r)
                                        .into_iter()
                                        .flat_map(|rec| rec.props.keys())
                                        .filter(|k| !map.contains_key(*k))
                                        .cloned()
                                        .collect();
                                    let g = self.graph_mut("SET")?;
                                    for k in stale {
                                        g.remove_rel_prop(r, &k)?;
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
}

/// A `WITH` or `RETURN` in the pipeline: streams, or folds its input into
/// the state its shape needs (see [`Fold`]).
struct Projector<'q> {
    shape: Shape<'q>,
    /// `SKIP` and `LIMIT`, evaluated at the first chunk or at the end.
    page: Option<(usize, Option<usize>)>,
    step: ProjStep<'q>,
    fold: Fold,
    /// A copy of the result, for a `RETURN` that later clauses move past.
    tee: Option<Vec<Row>>,
}

/// What one row projects to.
struct Shape<'q> {
    proj: &'q Projection,
    /// The `WHERE` of a `WITH` (a `RETURN` has none).
    filter: Option<&'q Expr>,
    /// The projected items and their column names; for `*`, settled when
    /// the input is complete.
    items: Cow<'q, [ProjItem]>,
    columns: Vec<String>,
}

/// What a projection holds between chunks: the state of its
/// [`FoldKind`], or a `*` projection's input.
enum Fold {
    /// The count of rows past the filter, against `SKIP`/`LIMIT`.
    Stream(usize),
    /// The bounded heap, and how many rows went in (the tiebreaking input
    /// index).
    TopK(TopKRows, usize),
    /// The projected rows so far, past the filter.
    Rows(Vec<Row>),
    Groups(Grouper),
    /// `*`: the input rows, until their names are known.
    Star(Vec<Row>),
}

impl Fold {
    fn new(kind: FoldKind, shape: &Shape<'_>) -> Self {
        match kind {
            FoldKind::Stream => Fold::Stream(0),
            FoldKind::TopK => Fold::TopK(TopKRows::new(0), 0),
            FoldKind::Rows => Fold::Rows(Vec::new()),
            FoldKind::Groups => Fold::Groups(Grouper::new(&shape.items)),
        }
    }
}

impl<'q> Projector<'q> {
    fn new(step: ProjStep<'q>) -> Self {
        let proj = step.proj;
        let items = Cow::Borrowed(&proj.items[..]);
        let shape = Shape {
            proj,
            filter: step.filter,
            columns: items.iter().map(ProjItem::name).collect(),
            items,
        };
        Projector {
            fold: if proj.star {
                Fold::Star(Vec::new())
            } else {
                Fold::new(step.fold, &shape)
            },
            shape,
            page: None,
            step,
            tee: step.tee.then(Vec::new),
        }
    }

    /// `SKIP` and `LIMIT`, evaluated once; sizes the top-k heap.
    fn page(&mut self, ctx: &EvalCtx<'_>) -> Result<(usize, Option<usize>)> {
        if let Some(page) = self.page {
            return Ok(page);
        }
        let proj = self.shape.proj;
        let int = |e: &Option<Expr>| -> Result<Option<usize>> {
            e.as_ref()
                .map(|e| Ok(crate::plan::eval_const_int(ctx, e)? as usize))
                .transpose()
        };
        let skip = int(&proj.skip)?.unwrap_or(0);
        let limit = int(&proj.limit)?;
        if let (Fold::TopK(top, _), Some(l)) = (&mut self.fold, limit) {
            *top = TopKRows::new(skip.saturating_add(l));
        }
        self.page = Some((skip, limit));
        Ok((skip, limit))
    }

    /// The groups a `MATCH` folds into, after `SKIP`/`LIMIT` as in `push`.
    fn groups(&mut self, ctx: &EvalCtx<'_>) -> Result<&mut Grouper> {
        self.page(ctx)?;
        match &mut self.fold {
            Fold::Groups(groups) => Ok(groups),
            _ => unreachable!("a MATCH folds only into groups"),
        }
    }

    fn push(&mut self, ctx: &EvalCtx<'_>, rows: Vec<Row>, emit: &mut Emit<'_>) -> Result<Flow> {
        let (skip, limit) = self.page(ctx)?;
        let shape = &self.shape;
        match &mut self.fold {
            Fold::Stream(passed) => {
                let done = |passed: usize| limit.is_some_and(|l| passed >= skip.saturating_add(l));
                let mut out = Vec::with_capacity(rows.len());
                for row in &rows {
                    if done(*passed) {
                        break;
                    }
                    let r2 = shape.project(ctx, row)?;
                    if shape.passes(ctx, &r2)? {
                        *passed += 1;
                        if *passed > skip {
                            out.push(r2);
                        }
                    }
                }
                let flow = emit(out)?;
                if done(*passed) {
                    return Ok(Flow::Break(()));
                }
                return Ok(flow);
            }
            Fold::TopK(top, n) => {
                for row in &rows {
                    let r2 = shape.project(ctx, row)?;
                    if shape.passes(ctx, &r2)? {
                        top.push(shape.keyed(ctx, r2, *n)?);
                        *n += 1;
                    }
                }
            }
            Fold::Rows(kept) => {
                for row in &rows {
                    let r2 = shape.project(ctx, row)?;
                    if shape.passes(ctx, &r2)? {
                        kept.push(r2);
                    }
                }
            }
            Fold::Groups(groups) => {
                for row in rows {
                    groups.push(ctx, row)?;
                }
            }
            Fold::Star(input) => append(input, rows),
        }
        Ok(Flow::Continue(()))
    }

    /// End of input: the rows a folding projection hands on (none for a
    /// streaming one, which handed them on already).
    fn finish(&mut self, ctx: &EvalCtx<'_>) -> Result<Vec<Row>> {
        if let Fold::Star(input) = &mut self.fold {
            // The names are known now: fold the input as any projection.
            let input = std::mem::take(input);
            let items = star_items(&input, &self.shape.proj.items);
            self.shape.columns = items.iter().map(ProjItem::name).collect();
            self.shape.items = Cow::Owned(items);
            self.fold = Fold::new(self.step.fold, &self.shape);
            self.page = None; // sizes the fresh top-k heap
            let _ = self.push(ctx, input, &mut |_| unreachable!("a `*` fold collects"))?;
        }
        let (skip, limit) = self.page(ctx)?;
        let keep = limit.map(|l| skip.saturating_add(l));
        let shape = &self.shape;
        let mut rows = match std::mem::replace(&mut self.fold, Fold::Stream(0)) {
            Fold::Stream(_) => return Ok(Vec::new()),
            Fold::TopK(top, _) => top.into_sorted_rows(),
            Fold::Rows(rows) => shape.order(ctx, rows, keep)?,
            Fold::Groups(groups) => {
                let rows = groups.finish(ctx, &shape.columns)?;
                shape.settle(ctx, rows, keep)?
            }
            Fold::Star(_) => unreachable!("settled above"),
        };
        if let Some(keep) = keep {
            rows.truncate(keep);
        }
        rows.drain(..skip.min(rows.len()));
        if let Some(tee) = &mut self.tee {
            tee.clone_from(&rows);
        }
        Ok(rows)
    }
}

impl Shape<'_> {
    /// The projection of one input row.
    fn project(&self, ctx: &EvalCtx<'_>, row: &Row) -> Result<Row> {
        let mut r2 = Row::with_capacity(self.items.len());
        for (item, col) in self.items.iter().zip(&self.columns) {
            r2.set(col, eval(ctx, row, &item.expr)?);
        }
        Ok(r2)
    }

    /// Whether a projected row passes the `WITH … WHERE`.
    fn passes(&self, ctx: &EvalCtx<'_>, row: &Row) -> Result<bool> {
        match self.filter {
            Some(pred) => Ok(eval(ctx, row, pred)?.is_truthy()),
            None => Ok(true),
        }
    }

    /// A projected row with its `ORDER BY` keys and input index `idx`.
    fn keyed(&self, ctx: &EvalCtx<'_>, row: Row, idx: usize) -> Result<Keyed> {
        let mut keys = Vec::with_capacity(self.proj.order_by.len());
        for (e, asc) in &self.proj.order_by {
            let key = OrderKey(eval(ctx, &row, e)?);
            keys.push(if *asc {
                SortKey::Asc(key)
            } else {
                SortKey::Desc(Reverse(key))
            });
        }
        Ok(Keyed { keys, idx, row })
    }

    /// The filter and the order, over complete projected rows (grouped
    /// rows are distinct by construction).
    fn settle(&self, ctx: &EvalCtx<'_>, rows: Vec<Row>, keep: Option<usize>) -> Result<Vec<Row>> {
        let mut kept: Vec<Row> = Vec::with_capacity(rows.len());
        for r in rows {
            if self.passes(ctx, &r)? {
                kept.push(r);
            }
        }
        self.order(ctx, kept, keep)
    }

    /// Sort by the `ORDER BY` keys, keeping only the best `keep` rows when
    /// given (bounded top-k: the input index as final tiebreaker makes it
    /// the stable full sort, truncated).
    fn order(&self, ctx: &EvalCtx<'_>, rows: Vec<Row>, keep: Option<usize>) -> Result<Vec<Row>> {
        if self.proj.order_by.is_empty() {
            return Ok(rows);
        }
        let keyed = rows
            .into_iter()
            .enumerate()
            .map(|(i, r)| self.keyed(ctx, r, i));
        if let Some(keep) = keep {
            let mut top = TopKRows::new(keep);
            for k in keyed {
                top.push(k?);
            }
            return Ok(top.into_sorted_rows());
        }
        let mut keyed = keyed.collect::<Result<Vec<Keyed>>>()?;
        keyed.sort_unstable();
        Ok(keyed.into_iter().map(|k| k.row).collect())
    }
}

/// `*` expanded into identity items over every name bound in some row,
/// sorted, followed by the explicit `items`.
fn star_items(rows: &[Row], items: &[ProjItem]) -> Vec<ProjItem> {
    // Consecutive rows nearly always bind the same names: only a row whose
    // names differ from its predecessor's is looked at.
    let mut names: Vec<String> = Vec::new();
    let mut prev: Option<&Row> = None;
    for r in rows {
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
    let star = names.into_iter().map(|n| ProjItem {
        expr: Expr::Var(n.clone()),
        alias: Some(n),
    });
    star.chain(items.iter().cloned()).collect()
}

/// One aggregate call of a projection.
struct AggSpec {
    /// `None` = `count(*)`.
    arg: Option<Expr>,
    name: String,
    distinct: bool,
}

/// A projected item: a grouping key, or an expression over aggregates
/// whose calls are rewritten to the placeholders `__agg0`, `__agg1`, ….
enum ItemKind {
    GroupKey(Expr),
    Agg(Expr),
}

/// One group: its key values (moved in from the index at the end), one
/// accumulator per aggregate call, and its first input row (what a
/// rewritten item reads besides the placeholders).
struct Group {
    key: Vec<OrderKey>,
    accs: Vec<Accumulator>,
    rep: Row,
}

/// Grouping and aggregation, folded one input row at a time; `DISTINCT`
/// is grouping by every item.
pub(crate) struct Grouper {
    specs: Vec<AggSpec>,
    kinds: Vec<ItemKind>,
    /// The groups in first-seen order,
    groups: Vec<Group>,
    /// and each one's place there by its key values, tied by
    /// [`Value::cmp_order`]. Empty when no item is a key.
    index: BTreeMap<Vec<OrderKey>, usize>,
    /// What keys and non-bare arguments read of a row (see `folds`).
    reads: Vec<String>,
}

impl Grouper {
    pub(crate) fn new(items: &[ProjItem]) -> Self {
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
        let mut reads = Vec::new();
        // Free variables, and pattern labels (a row may bind them).
        let mut read = |e: &Expr| {
            e.collect_vars(&mut reads);
            visit::expr(e, &mut |node: visit::Node| {
                if let visit::Node::Pattern(p) = node {
                    reads.extend(p.nodes().flat_map(|n| n.labels.iter().cloned()));
                }
                true
            });
        };
        let kinds = items
            .iter()
            .map(|i| {
                if i.expr.has_aggregate() {
                    ItemKind::Agg(rewrite(&i.expr))
                } else {
                    read(&i.expr);
                    ItemKind::GroupKey(i.expr.clone())
                }
            })
            .collect();
        let args = specs.iter().filter_map(|s| s.arg.as_ref());
        args.filter(|a| !matches!(a, Expr::Var(_)))
            .for_each(&mut read);
        Grouper {
            specs,
            kinds,
            groups: Vec::new(),
            index: BTreeMap::new(),
            reads,
        }
    }

    /// Whether [`Grouper::fold`] may stand for the rows of a last hop that
    /// binds `vars`: two names (binding the second would test equality),
    /// and neither read by a key or by an argument other than itself.
    pub(crate) fn folds(&self, vars: [Option<&String>; 2]) -> bool {
        vars[0].is_none_or(|r| vars[1] != Some(r))
            && !vars.into_iter().flatten().any(|v| self.reads.contains(v))
    }

    /// A group no row was folded into yet.
    fn group(&self) -> Group {
        let new = |s: &AggSpec| Accumulator::new(&s.name, s.distinct).expect("aggregate");
        Group {
            key: Vec::new(),
            accs: self.specs.iter().map(new).collect(),
            rep: Row::new(),
        }
    }

    /// The group `row` belongs to, created if new, and whether it is.
    fn group_of(&mut self, ctx: &EvalCtx<'_>, row: &Row) -> Result<(usize, bool)> {
        let mut key = Vec::new();
        for k in &self.kinds {
            if let ItemKind::GroupKey(e) = k {
                key.push(OrderKey(eval(ctx, row, e)?));
            }
        }
        let fresh = self.groups.len();
        // Without keys every row is the one group's.
        let gi = if key.is_empty() {
            0
        } else {
            *self.index.entry(key).or_insert(fresh)
        };
        if gi == fresh {
            let group = self.group();
            self.groups.push(group);
        }
        Ok((gi, gi == fresh))
    }

    /// Fold one input row into its group.
    fn push(&mut self, ctx: &EvalCtx<'_>, row: Row) -> Result<()> {
        let (gi, fresh) = self.group_of(ctx, &row)?;
        let group = &mut self.groups[gi];
        for (acc, spec) in group.accs.iter_mut().zip(&self.specs) {
            let v = match &spec.arg {
                None => Value::Int(1), // count(*): count every row
                Some(arg) => eval(ctx, &row, arg)?,
            };
            acc.push(v)?;
        }
        // Only aggregate items read the row; a `DISTINCT` keeps none.
        if fresh && !self.specs.is_empty() {
            group.rep = row;
        }
        Ok(())
    }

    /// Fold the rows extending `row` by each of `cands` (the relationship
    /// bound to `vars[0]`, the node to `vars[1]`) as [`Grouper::push`]
    /// would: a bare `vars` argument takes each candidate, any other the
    /// state's value once per candidate. Arguments fold one by one, not
    /// row by row, with the same first error: what an accumulator takes
    /// once it takes every time.
    fn fold(
        &mut self,
        ctx: &EvalCtx<'_>,
        row: &Row,
        vars: [Option<&String>; 2],
        cands: &[(RelId, NodeId)],
    ) -> Result<()> {
        let (gi, fresh) = self.group_of(ctx, row)?;
        let group = &mut self.groups[gi];
        let rels = cands.iter().map(|c| Value::Rel(c.0));
        let nodes = cands.iter().map(|c| Value::Node(c.1));
        for (acc, spec) in group.accs.iter_mut().zip(&self.specs) {
            match &spec.arg {
                Some(Expr::Var(v)) if vars[0] == Some(v) => acc.push_all(rels.clone())?,
                Some(Expr::Var(v)) if vars[1] == Some(v) => acc.push_all(nodes.clone())?,
                None => acc.push_n(Value::Int(1), cands.len())?,
                Some(arg) => acc.push_n(eval(ctx, row, arg)?, cands.len())?,
            }
        }
        if fresh && !self.specs.is_empty() {
            let mut rep = row.clone_with_room(2);
            let (rid, nid) = cands[0];
            for (var, item) in vars.into_iter().zip([Value::Rel(rid), Value::Node(nid)]) {
                if let Some(var) = var {
                    rep.set(var, item);
                }
            }
            group.rep = rep;
        }
        Ok(())
    }

    /// One output row per group.
    fn finish(mut self, ctx: &EvalCtx<'_>, columns: &[String]) -> Result<Vec<Row>> {
        // Aggregation over the empty input with no group keys yields a
        // single group (so `RETURN count(*)` on no rows is 0).
        let no_group_keys = self.kinds.iter().all(|k| matches!(k, ItemKind::Agg(_)));
        if self.groups.is_empty() && no_group_keys {
            self.groups.push(self.group());
        }
        for (key, gi) in std::mem::take(&mut self.index) {
            self.groups[gi].key = key;
        }
        let mut out = Vec::with_capacity(self.groups.len());
        for g in self.groups {
            let mut env = g.rep.clone_with_room(g.accs.len());
            for (si, acc) in g.accs.into_iter().enumerate() {
                env.set(format!("__agg{si}"), acc.finish());
            }
            let mut r2 = Row::with_capacity(self.kinds.len());
            let mut key_iter = g.key.into_iter();
            for (kind, col) in self.kinds.iter().zip(columns) {
                match kind {
                    ItemKind::GroupKey(_) => {
                        r2.set(col, key_iter.next().expect("group key").0);
                    }
                    ItemKind::Agg(rewritten) => {
                        r2.set(col, eval(ctx, &env, rewritten)?);
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
