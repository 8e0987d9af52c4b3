//! The active-graph session: statement execution with full PG-Trigger
//! semantics (paper §4.2).
//!
//! Execution model:
//!
//! 1. Each top-level query is a **statement**; its net effect is a delta.
//! 2. `BEFORE` triggers run first: conditions are evaluated against the
//!    **pre-statement state** (a [`PreStateView`]), transition variables
//!    come from the delta, and statements run under a write policy that
//!    only allows conditioning the NEW items (property assignments) or
//!    aborting.
//! 3. `AFTER` triggers run next, in activation order (creation time by
//!    default). Each fired statement produces its own delta which
//!    recursively activates `BEFORE`/`AFTER` triggers — the SQL3 execution-
//!    context stack — bounded by a configurable cascade depth.
//! 4. At commit, `ONCOMMIT` triggers run on the cumulative transaction
//!    delta; their side effects join the transaction and may re-activate
//!    `ONCOMMIT` triggers in subsequent rounds (bounded fixpoint). Any
//!    failure rolls back the whole transaction.
//! 5. After a successful commit, `DETACHED` triggers run, each in its own
//!    autonomous transaction; failures are recorded but do not affect the
//!    committed transaction.

use crate::catalog::{OrderPolicy, TriggerCatalog};
use crate::ddl::{parse_index_ddl, parse_trigger_ddl, DdlStatement, IndexDdl};
use crate::error::{InstallError, TriggerError};
use crate::spec::{ActionTime, TriggerSpec};
use pg_cypher::{
    run_prepared, CypherError, Params, Prepared, Query, QueryOutput, Row, StatementCache,
    StatementClass, Target,
};
use pg_graph::{Delta, Graph, IndexDef, ItemRef, PreStateView, StatementMark, WritePolicy};
use std::collections::VecDeque;
use std::sync::Arc;

/// Captured DETACHED activations: each entry is one activation unit's
/// trigger (shared) and seed rows.
type DetachedQueue = VecDeque<(Arc<TriggerSpec>, Vec<Row>)>;

/// A trigger activated by a delta: its activation units (seed rows) and
/// the NEW items they are about — see [`crate::binding::bind`].
type Bound = (Arc<TriggerSpec>, Vec<Vec<Row>>, Vec<ItemRef>);

use crate::schema_guard::SchemaGuard;

/// Engine tunables.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum trigger cascade depth (SQL3-style context stack bound).
    pub max_cascade_depth: usize,
    /// Maximum ONCOMMIT fixpoint rounds before declaring divergence.
    pub max_commit_rounds: usize,
    /// Maximum chained DETACHED activations per commit.
    pub max_detached_chain: usize,
    /// When `false`, trigger statements do not re-activate triggers —
    /// emulates the APOC/Memgraph limitation the paper reports in §5.1
    /// ("APOC triggers do not cascade correctly").
    pub cascading_enabled: bool,
    /// Activation order for triggers sharing an action time.
    pub order: OrderPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_cascade_depth: 32,
            max_commit_rounds: 16,
            max_detached_chain: 256,
            cascading_enabled: true,
            order: OrderPolicy::CreationTime,
        }
    }
}

/// Cumulative execution statistics (instrumentation for the benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Trigger statements executed (condition held).
    pub fired: u64,
    /// Trigger activations whose condition did not hold.
    pub suppressed: u64,
    /// Deepest cascade observed.
    pub max_depth_seen: usize,
    /// DETACHED autonomous transactions executed.
    pub detached_runs: u64,
    /// ONCOMMIT rounds executed.
    pub commit_rounds: u64,
}

/// Result of [`Session::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    Query(QueryOutput),
    /// The rendered physical-plan report of an `EXPLAIN <query>`.
    Explain(String),
    TriggerCreated(String),
    TriggerDropped(String),
    IndexCreated(IndexDef),
    IndexDropped(IndexDef),
}

/// An active-graph session: graph + trigger catalog + engine.
pub struct Session {
    graph: Graph,
    catalog: TriggerCatalog,
    config: EngineConfig,
    now_ms: i64,
    /// Mark at the start of the current explicit transaction.
    tx_mark: Option<StatementMark>,
    detached_errors: Vec<(String, TriggerError)>,
    stats: EngineStats,
    /// Optional PG-Schema guard validated at every commit (an implicit
    /// highest-priority ONCOMMIT integrity check).
    schema: Option<SchemaGuard>,
    /// Attached durability layer (WAL + snapshots) when opened through
    /// [`Session::open_durable`]; `None` for in-memory sessions.
    durable: Option<pg_wal::Durable>,
    /// Statements prepared from text by [`Session::prepare`].
    statements: StatementCache,
}

/// What the row-returning fronts answer for a statement of another class.
const NOT_A_QUERY: TriggerError =
    TriggerError::Session("expected a query; DDL and EXPLAIN go through execute()");

/// The rows of a query-class result; the other classes have none.
fn query_output(result: ExecResult) -> Result<QueryOutput, TriggerError> {
    match result {
        ExecResult::Query(out) => Ok(out),
        _ => Err(NOT_A_QUERY),
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    pub fn new() -> Self {
        Session::with_config(EngineConfig::default())
    }

    pub fn with_config(config: EngineConfig) -> Self {
        let mut catalog = TriggerCatalog::new();
        catalog.order = config.order;
        Session {
            graph: Graph::new(),
            catalog,
            config,
            now_ms: 0,
            tx_mark: None,
            detached_errors: Vec::new(),
            stats: EngineStats::default(),
            schema: None,
            durable: None,
            statements: StatementCache::new(),
        }
    }

    // ------------------------------------------------------------------
    // Durability (see `pg-wal`)
    // ------------------------------------------------------------------

    /// Open a durable session over `dir`: recover whatever the directory
    /// holds (an empty directory starts an empty store) and attach the
    /// WAL to the commit path, so every subsequent committed transaction
    /// — including its full trigger-cascade effects — is logged before it
    /// publishes.
    ///
    /// Recovery replays *effects*: WAL frames carry the post-cascade
    /// committed op stream, so triggers that fired before a crash are
    /// never re-fired here (the recovered session's `stats().fired` stays
    /// 0). Trigger definitions themselves are code, not data — reinstall
    /// them after opening, as on any fresh session.
    pub fn open_durable(
        dir: &std::path::Path,
        config: EngineConfig,
        wal_opts: pg_wal::WalOptions,
    ) -> Result<(Session, pg_wal::RecoveryReport), pg_wal::RecoveryError> {
        let (durable, graph, report) =
            pg_wal::Durable::open(dir, wal_opts, pg_wal::RecoveryOptions::default())?;
        let mut session = Session::with_config(config);
        session.graph = graph;
        session.durable = Some(durable);
        Ok((session, report))
    }

    /// Whether this session persists commits through a WAL.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The attached durability layer, if any.
    pub fn durable(&self) -> Option<&pg_wal::Durable> {
        self.durable.as_ref()
    }

    /// Sequence number of the last durable commit frame (0 when not
    /// durable or nothing committed yet).
    pub fn wal_seq(&self) -> u64 {
        self.durable.as_ref().map(|d| d.seq()).unwrap_or(0)
    }

    /// Force buffered group-commit frames to disk. No-op when not durable.
    pub fn wal_flush(&self) -> std::io::Result<()> {
        match &self.durable {
            Some(d) => d.flush().map_err(Into::into),
            None => Ok(()),
        }
    }

    /// Cut a compacted snapshot and truncate the WAL it supersedes.
    /// Also the way *unlogged* work (bulk loads via [`Session::graph_mut`]
    /// outside a transaction) becomes durable. Returns the snapshot's
    /// commit sequence.
    pub fn checkpoint(&mut self) -> std::io::Result<u64> {
        if self.tx_mark.is_some() {
            return Err(std::io::Error::other(
                "cannot checkpoint inside an explicit transaction",
            ));
        }
        match &self.durable {
            Some(d) => d.checkpoint(&self.graph).map_err(Into::into),
            None => Err(std::io::Error::other("session is not durable")),
        }
    }

    /// Cleanly shut down durability: flush, checkpoint, and detach the
    /// WAL. The session keeps working in-memory afterwards; the directory
    /// holds a snapshot equal to the final state (recovery replays zero
    /// frames).
    pub fn close_durable(&mut self) -> std::io::Result<()> {
        if self.tx_mark.is_some() {
            return Err(std::io::Error::other(
                "cannot close durability inside an explicit transaction",
            ));
        }
        if let Some(d) = self.durable.take() {
            d.flush()?;
            d.checkpoint(&self.graph)?;
            self.graph.set_commit_sink(None);
        }
        Ok(())
    }

    /// Attach a PG-Schema graph type; every subsequent commit validates the
    /// transaction's net effect and rolls back on violation (see
    /// [`crate::schema_guard`]). Attaching does **not** validate the graph
    /// as it stands: the guard blames a transaction only for violations on
    /// items it touched, so whatever is already there stays until a
    /// transaction touches it ([`pg_schema::validate_graph`] audits a whole
    /// graph). Properties the schema declares `KEY` or `INDEX` get a
    /// property index created on the spot (idempotent); the `KEY` indexes
    /// are what the guard probes for key uniqueness.
    pub fn set_schema(&mut self, graph_type: pg_schema::GraphType) {
        for def in graph_type.index_defs() {
            self.graph.define_index(&def);
        }
        self.schema = Some(SchemaGuard::new(graph_type));
    }

    /// Detach the schema guard, returning it.
    pub fn clear_schema(&mut self) -> Option<pg_schema::GraphType> {
        self.schema.take().map(SchemaGuard::into_graph_type)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Direct mutable access to the graph. **Bypasses triggers** — intended
    /// for bulk loading and test setup only.
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// A `Send + Sync` handle for reader threads; each clone pins
    /// [`pg_graph::Snapshot`]s of the last committed epoch (see
    /// [`crate::ReadSession`]). Must first be called outside an explicit
    /// transaction.
    pub fn reader_handle(&mut self) -> pg_graph::GraphHandle {
        self.graph.reader_handle()
    }

    /// Pin a snapshot of the last committed epoch. Mid-transaction (or
    /// mid-cascade, from a trigger's perspective) this exposes the state
    /// as of the previous commit — never partially applied work.
    pub fn snapshot(&mut self) -> pg_graph::Snapshot {
        self.graph.snapshot()
    }

    pub fn catalog(&self) -> &TriggerCatalog {
        &self.catalog
    }

    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Failures of DETACHED triggers (they do not fail the transaction, per
    /// §4.2). They persist until the next commit that *runs* DETACHED
    /// activations, which replaces them with its own.
    pub fn detached_errors(&self) -> &[(String, TriggerError)] {
        &self.detached_errors
    }

    /// The session's logical clock (milliseconds); advances by one second
    /// per statement so `DATETIME()` is deterministic and monotonic.
    pub fn now_ms(&self) -> i64 {
        self.now_ms
    }

    pub fn set_now_ms(&mut self, now_ms: i64) {
        self.now_ms = now_ms;
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Install a trigger from DDL text; returns its name.
    pub fn install(&mut self, ddl: &str) -> Result<String, InstallError> {
        match parse_trigger_ddl(ddl)? {
            DdlStatement::CreateTrigger(spec) => self.install_spec(spec),
            DdlStatement::DropTrigger(_) => Err(InstallError::Syntax(
                "expected CREATE TRIGGER, got DROP".into(),
            )),
        }
    }

    /// Install a pre-built spec (validated).
    pub fn install_spec(&mut self, spec: TriggerSpec) -> Result<String, InstallError> {
        crate::ddl::validate_spec(&spec)?;
        let name = spec.name.clone();
        self.catalog.install(spec)?;
        Ok(name)
    }

    pub fn drop_trigger(&mut self, name: &str) -> Result<(), TriggerError> {
        if self.catalog.drop_trigger(name) {
            Ok(())
        } else {
            Err(TriggerError::UnknownTrigger(name.to_string()))
        }
    }

    /// Pause/resume a trigger (APOC `stop`/`start` parity).
    pub fn set_trigger_enabled(&mut self, name: &str, enabled: bool) -> Result<(), TriggerError> {
        if self.catalog.set_enabled(name, enabled) {
            Ok(())
        } else {
            Err(TriggerError::UnknownTrigger(name.to_string()))
        }
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    /// Prepare `src` through this session's statement cache: classify
    /// it and, unless it is DDL, parse it — once per distinct text.
    pub fn prepare(&mut self, src: &str) -> Result<Arc<Prepared>, TriggerError> {
        Ok(self.statements.get_or_prepare(src)?)
    }

    /// Execute DDL (trigger or index), an `EXPLAIN` or a query,
    /// dispatching on the text.
    pub fn execute(&mut self, src: &str) -> Result<ExecResult, TriggerError> {
        let stmt = self.prepare(src)?;
        self.run_prepared(&stmt, Vec::new(), &Params::new())
    }

    /// Run a prepared statement of any class — the one execution entry
    /// point; [`Session::execute`], [`Session::run`],
    /// [`Session::run_with_params`] and [`Session::run_query_ast`] all end
    /// here. A query runs as one statement (auto-commit unless inside an
    /// explicit transaction) from `seeds`, with full trigger processing.
    /// An `EXPLAIN` renders the plan of its query under `params` — chosen
    /// access paths, degree-statistics join-output estimates, and, for a
    /// read-only query, which is executed once against the current graph,
    /// the actual row count next to the estimate. DDL takes no parameters.
    pub fn run_prepared(
        &mut self,
        stmt: &Prepared,
        seeds: Vec<Row>,
        params: &Params,
    ) -> Result<ExecResult, TriggerError> {
        match stmt.class() {
            StatementClass::Query => self
                .run_statement(stmt, seeds, params)
                .map(ExecResult::Query),
            StatementClass::Explain => {
                pg_cypher::explain_prepared(&self.graph, stmt, params, self.now_ms)
                    .map(ExecResult::Explain)
                    .map_err(TriggerError::Cypher)
            }
            StatementClass::TriggerDdl | StatementClass::IndexDdl => {
                if !params.is_empty() {
                    return Err(TriggerError::Cypher(CypherError::type_err(
                        "DDL statements take no parameters",
                    )));
                }
                let text = stmt.text().expect("DDL classes are prepared from text");
                if stmt.class() == StatementClass::TriggerDdl {
                    self.execute_trigger_ddl(text)
                } else {
                    self.execute_index_ddl(text)
                }
            }
        }
    }

    fn execute_trigger_ddl(&mut self, src: &str) -> Result<ExecResult, TriggerError> {
        match parse_trigger_ddl(src).map_err(TriggerError::Install)? {
            DdlStatement::CreateTrigger(spec) => {
                let name = self.install_spec(spec).map_err(TriggerError::Install)?;
                Ok(ExecResult::TriggerCreated(name))
            }
            DdlStatement::DropTrigger(name) => {
                self.drop_trigger(&name)?;
                Ok(ExecResult::TriggerDropped(name))
            }
        }
    }

    fn execute_index_ddl(&mut self, src: &str) -> Result<ExecResult, TriggerError> {
        let IndexDdl { create, def } = parse_index_ddl(src).map_err(TriggerError::Install)?;
        if create {
            self.create_index(&def)?;
            Ok(ExecResult::IndexCreated(def))
        } else {
            self.drop_index(&def)?;
            Ok(ExecResult::IndexDropped(def))
        }
    }

    /// Create the property index `def`, populated from the current extent
    /// and maintained through every subsequent mutation (including
    /// statement rollback and aborted trigger cascades). A malformed
    /// column list (empty or repeating — index DDL text rejects both at
    /// parse time) also answers `DuplicateIndex`.
    pub fn create_index(&mut self, def: &IndexDef) -> Result<(), TriggerError> {
        if self.graph.define_index(def) {
            Ok(())
        } else {
            Err(TriggerError::Install(InstallError::DuplicateIndex(
                def.clone(),
            )))
        }
    }

    /// Drop the property index `def`.
    pub fn drop_index(&mut self, def: &IndexDef) -> Result<(), TriggerError> {
        if self.graph.drop_index(def) {
            Ok(())
        } else {
            Err(TriggerError::Install(InstallError::UnknownIndex(
                def.clone(),
            )))
        }
    }

    /// Every property-index definition, sorted (nodes first).
    pub fn indexes(&self) -> Vec<IndexDef> {
        self.graph.indexes()
    }

    /// Run one query as a statement (auto-commit unless inside an explicit
    /// transaction), with full trigger processing.
    pub fn run(&mut self, src: &str) -> Result<QueryOutput, TriggerError> {
        self.run_with_params(src, &Params::new())
    }

    pub fn run_with_params(
        &mut self,
        src: &str,
        params: &Params,
    ) -> Result<QueryOutput, TriggerError> {
        let stmt = self.prepare(src)?;
        if stmt.class() != StatementClass::Query {
            // Refuse before anything runs: DDL must not take effect here.
            return Err(NOT_A_QUERY);
        }
        query_output(self.run_prepared(&stmt, Vec::new(), params)?)
    }

    /// Run a pre-parsed query with seed rows. Prepares a copy of `query`
    /// per call; a caller that runs one AST many times keeps a
    /// [`Prepared`] and calls [`Session::run_prepared`].
    pub fn run_query_ast(
        &mut self,
        query: &Query,
        seeds: Vec<Row>,
        params: &Params,
    ) -> Result<QueryOutput, TriggerError> {
        query_output(self.run_prepared(&Prepared::from(query.clone()), seeds, params)?)
    }

    /// The query class of [`Session::run_prepared`].
    fn run_statement(
        &mut self,
        stmt: &Prepared,
        seeds: Vec<Row>,
        params: &Params,
    ) -> Result<QueryOutput, TriggerError> {
        self.now_ms += 1000;
        if self.tx_mark.is_some() {
            // Statement inside an explicit transaction: statement-level
            // rollback on error, transaction survives.
            let stmt_mark = self.graph.mark();
            match self.exec_statement(stmt, seeds, params, 0) {
                Ok(out) => Ok(out),
                Err(e) => {
                    self.graph.rollback_to(stmt_mark)?;
                    Err(e)
                }
            }
        } else {
            // Auto-commit statement.
            self.graph.begin()?;
            self.tx_mark = Some(self.graph.mark());
            let result = self.exec_statement(stmt, seeds, params, 0);
            match result {
                Ok(out) => match self.commit() {
                    Ok(()) => Ok(out),
                    Err(e) => Err(e),
                },
                Err(e) => {
                    self.tx_mark = None;
                    self.graph.rollback()?;
                    Err(e)
                }
            }
        }
    }

    /// Begin an explicit transaction.
    pub fn begin(&mut self) -> Result<(), TriggerError> {
        if self.tx_mark.is_some() {
            return Err(TriggerError::Session("transaction already active"));
        }
        self.graph.begin()?;
        self.tx_mark = Some(self.graph.mark());
        Ok(())
    }

    /// Roll back the explicit transaction.
    pub fn rollback(&mut self) -> Result<(), TriggerError> {
        if self.tx_mark.take().is_none() {
            return Err(TriggerError::Session("no active transaction"));
        }
        self.graph.rollback()?;
        Ok(())
    }

    /// Commit: run the ONCOMMIT fixpoint, commit the store transaction,
    /// then run DETACHED triggers in autonomous transactions.
    pub fn commit(&mut self) -> Result<(), TriggerError> {
        let tx_mark = self
            .tx_mark
            .ok_or(TriggerError::Session("no active transaction"))?;
        match self.commit_inner(tx_mark) {
            Ok(detached) => {
                self.tx_mark = None;
                self.run_detached_queue(detached);
                Ok(())
            }
            Err(e) => {
                // ONCOMMIT failure rolls back the entire transaction (§4.2).
                self.tx_mark = None;
                let _ = self.graph.rollback();
                Err(e)
            }
        }
    }

    /// The one bind step every action time goes through: ask the catalog
    /// which triggers of `time` can match `delta` (the net effect of the ops
    /// since `mark`) and — only if some do — unwind those ops into one
    /// pre-state view and bind each candidate against it. Returns the
    /// activated triggers in activation order; the rows are owned, so the
    /// op-log borrow ends here, before any trigger statement runs.
    fn bind(&self, time: ActionTime, mark: StatementMark, delta: &Delta) -> Vec<Bound> {
        let matched = self.catalog.matching(time, delta);
        if matched.is_empty() {
            return Vec::new();
        }
        let pre = PreStateView::new(&self.graph, self.graph.ops_since(mark));
        let mut bound = Vec::with_capacity(matched.len());
        for spec in matched {
            let (units, new_refs) = crate::binding::bind(&spec, delta, &pre, &self.graph);
            if !units.is_empty() {
                bound.push((spec, units, new_refs));
            }
        }
        bound
    }

    /// ONCOMMIT fixpoint + detached activation capture + store commit.
    fn commit_inner(&mut self, tx_mark: StatementMark) -> Result<DetachedQueue, TriggerError> {
        let mut round_mark = tx_mark;
        let mut rounds = 0usize;
        while self.catalog.armed(ActionTime::OnCommit)
            && !self.graph.ops_since(round_mark).is_empty()
        {
            // Activations for this round are bound against the round delta.
            let delta = self.graph.delta_since(round_mark);
            let activations = self.bind(ActionTime::OnCommit, round_mark, &delta);
            if activations.is_empty() {
                break;
            }
            rounds += 1;
            self.stats.commit_rounds += 1;
            if rounds > self.config.max_commit_rounds {
                return Err(TriggerError::CommitFixpointDiverged { rounds });
            }
            round_mark = self.graph.mark();
            let mut fired_any = false;
            for (spec, units, _) in activations {
                for unit in units {
                    fired_any |= self.activate(&spec, unit, 0)?;
                }
            }
            if !fired_any {
                break;
            }
        }

        // One transaction delta serves both consumers of the net effect.
        let mut queue = VecDeque::new();
        if self.catalog.armed(ActionTime::Detached) || self.schema.is_some() {
            let tx_delta = self.graph.delta_since(tx_mark);
            // Capture DETACHED activations before the op log disappears
            // with the commit.
            for (spec, units, _) in self.bind(ActionTime::Detached, tx_mark, &tx_delta) {
                queue.extend(units.into_iter().map(|unit| (Arc::clone(&spec), unit)));
            }
            // Schema guard: the transaction's net effect must conform (§2
            // PG-Schema + triggers-as-constraints). Violations roll back.
            if let Some(guard) = &self.schema {
                guard
                    .check(&self.graph, &tx_delta)
                    .map_err(TriggerError::Schema)?;
            }
        }

        self.graph.commit()?;
        Ok(queue)
    }

    /// Run queued DETACHED activations, each in an autonomous transaction.
    /// Their own deltas may enqueue further DETACHED activations (bounded).
    fn run_detached_queue(&mut self, mut queue: DetachedQueue) {
        if queue.is_empty() {
            return;
        }
        self.detached_errors.clear();
        let mut executed = 0usize;
        while let Some((spec, seeds)) = queue.pop_front() {
            if executed >= self.config.max_detached_chain {
                self.detached_errors.push((
                    spec.name.clone(),
                    TriggerError::RecursionLimit {
                        depth: self.config.max_detached_chain,
                        trigger: spec.name.clone(),
                    },
                ));
                break;
            }
            executed += 1;
            self.stats.detached_runs += 1;
            let result = self.run_one_detached(&spec, seeds, &mut queue);
            if let Err(e) = result {
                self.detached_errors.push((spec.name.clone(), e));
            }
        }
    }

    fn run_one_detached(
        &mut self,
        spec: &TriggerSpec,
        seeds: Vec<Row>,
        queue: &mut DetachedQueue,
    ) -> Result<(), TriggerError> {
        // Condition is considered at action time, i.e. post-commit (§4.2),
        // inside the activation's autonomous transaction. (Each queue
        // entry is already one activation unit.)
        self.graph.begin()?;
        let tx_mark = self.graph.mark();
        let nested = self.activate(spec, seeds, 0).and_then(|fired| {
            if !fired {
                return Ok(None);
            }
            // ONCOMMIT + nested DETACHED of the autonomous transaction.
            let saved_tx = self.tx_mark.replace(tx_mark);
            let res = self.commit_inner(tx_mark);
            self.tx_mark = saved_tx;
            res.map(Some)
        });
        match nested {
            Ok(Some(nested)) => {
                queue.extend(nested);
                Ok(())
            }
            // Suppressed: the transaction is empty, there is nothing to commit.
            Ok(None) => Ok(self.graph.rollback()?),
            Err(e) => {
                let _ = self.graph.rollback();
                Err(e)
            }
        }
    }

    /// Execute a statement and process its BEFORE/AFTER triggers.
    fn exec_statement(
        &mut self,
        stmt: &Prepared,
        seeds: Vec<Row>,
        params: &Params,
        depth: usize,
    ) -> Result<QueryOutput, TriggerError> {
        let mark = self.graph.mark();
        let target = Target::Write(&mut self.graph);
        let out = run_prepared(target, stmt, seeds, params, self.now_ms)?;
        self.fire_statement_triggers(mark, depth)?;
        Ok(out)
    }

    /// BEFORE + AFTER processing for the ops recorded since `mark`. A
    /// statement no trigger watches costs one delta normalisation and two
    /// index walks; nothing else is built.
    fn fire_statement_triggers(
        &mut self,
        mark: StatementMark,
        depth: usize,
    ) -> Result<(), TriggerError> {
        if depth > self.stats.max_depth_seen {
            self.stats.max_depth_seen = depth;
        }
        if self.graph.ops_since(mark).is_empty() {
            return Ok(());
        }
        let mut delta = self.graph.delta_since(mark);

        // ---- BEFORE triggers -------------------------------------------
        // The whole phase is bound up front, so every OLD is the state
        // before the activating statement (§4.2) — not a state an earlier
        // BEFORE trigger already conditioned.
        let mut conditioned = false;
        for (spec, units, allowed) in self.bind(ActionTime::Before, mark, &delta) {
            // Conditions are evaluated in sequence: each observes the
            // pre-statement state overlaid with the proposed state of its
            // NEW items, including the conditioning applied by the BEFORE
            // triggers before it — so the pre-state unwinds everything
            // since `mark`, their statements included.
            let surviving = if spec.condition.is_some() {
                let pre = PreStateView::new(&self.graph, self.graph.ops_since(mark));
                let view =
                    crate::overlay::NewStateOverlay::new(pre, &self.graph, allowed.iter().copied());
                let mut surviving = Vec::with_capacity(units.len());
                for unit in units {
                    surviving.push(eval_condition(&view, &spec, unit, self.now_ms)?);
                }
                surviving
            } else {
                units
            };
            for rows in surviving {
                if rows.is_empty() {
                    self.stats.suppressed += 1;
                    continue;
                }
                // BEFORE statements may only condition the NEW items (§4.2).
                let prev = self.graph.set_write_policy(WritePolicy::ConditionNewOnly(
                    allowed.iter().copied().collect(),
                ));
                let res = run_prepared(
                    Target::Write(&mut self.graph),
                    &spec.statement,
                    rows,
                    &Params::new(),
                    self.now_ms,
                );
                self.graph.set_write_policy(prev);
                res?;
                self.stats.fired += 1;
                conditioned = true;
            }
        }
        if conditioned {
            // AFTER triggers observe the conditioned NEW values.
            delta = self.graph.delta_since(mark);
        }

        // ---- AFTER triggers (cascading) --------------------------------
        // All AFTER activations are bound against the activating
        // statement's delta and pre-state before the first one runs (SQL3:
        // the triggering statement determines the affected rows; sibling
        // triggers' own effects activate triggers through their own
        // cascade). FOR EACH: one statement execution per affected item
        // (SQL3 row-trigger semantics); FOR ALL: one per statement.
        for (spec, units, _) in self.bind(ActionTime::After, mark, &delta) {
            for unit in units {
                self.activate(&spec, unit, depth)?;
            }
        }
        Ok(())
    }

    /// One AFTER / ONCOMMIT / DETACHED activation at cascade depth `depth`
    /// (0 = activated by a top-level statement, a commit or the detached
    /// queue): evaluate the condition against the current graph state;
    /// when rows survive, run the statement from them and — if cascading
    /// is enabled — process the triggers its own delta activates, one
    /// level deeper. Returns whether the statement ran (`false` = the
    /// condition suppressed the activation).
    fn activate(
        &mut self,
        spec: &TriggerSpec,
        unit: Vec<Row>,
        depth: usize,
    ) -> Result<bool, TriggerError> {
        let surviving = eval_condition(&self.graph, spec, unit, self.now_ms)?;
        if surviving.is_empty() {
            self.stats.suppressed += 1;
            return Ok(false);
        }
        if depth >= self.config.max_cascade_depth {
            return Err(TriggerError::RecursionLimit {
                depth,
                trigger: spec.name.clone(),
            });
        }
        let stmt_mark = self.graph.mark();
        run_prepared(
            Target::Write(&mut self.graph),
            &spec.statement,
            surviving,
            &Params::new(),
            self.now_ms,
        )?;
        self.stats.fired += 1;
        if self.config.cascading_enabled {
            self.fire_statement_triggers(stmt_mark, depth + 1)?;
        }
        Ok(true)
    }
}

/// Evaluate a trigger condition **per seed row** against `view`. The
/// surviving rows are the condition's output bindings merged with the seed's
/// transition variables (a condition projecting `WITH count(p) AS n` must
/// not lose `NEW`/`NEWNODES` for the statement — §4.2: the statement refers
/// to the transition variables and any bindings established by the
/// condition, as in the paper's `NewCriticalLineage` and
/// `MoveToNearHospital` examples).
fn eval_condition(
    view: &dyn pg_graph::GraphView,
    spec: &TriggerSpec,
    seeds: Vec<Row>,
    now_ms: i64,
) -> Result<Vec<Row>, TriggerError> {
    let Some(cond) = &spec.condition else {
        return Ok(seeds);
    };
    let mut out = Vec::new();
    for seed in seeds {
        let rows = run_prepared(
            Target::Read(view),
            cond,
            vec![seed.clone()],
            &Params::new(),
            now_ms,
        )?
        .bindings;
        for mut row in rows {
            row.merge_missing(&seed);
            out.push(row);
        }
    }
    Ok(out)
}
