//! Read-only sessions over pinned snapshots.
//!
//! A [`ReadSession`] is the reader half of the engine's single-writer /
//! N-reader concurrency model: it wraps a [`Snapshot`] pinned to one
//! committed epoch and runs read-only Cypher against it through the full
//! planner and executor — index probes, composite top-k walks, the works —
//! without ever touching the writer's [`crate::Session`].
//!
//! Because snapshots expose only *published* commit epochs, a read session
//! can never observe an open transaction or a partially applied trigger
//! cascade: `BEFORE`/`AFTER`/`ONCOMMIT` effects become visible atomically
//! with the commit that carried them, and `DETACHED` actions appear as
//! their own later epochs.
//!
//! ```
//! use pg_triggers::{ReadSession, Session};
//!
//! let mut session = Session::new();
//! session.run("CREATE (:Person {name: 'Ada'})").unwrap();
//!
//! let handle = session.reader_handle();
//! // `handle` is Send + Sync: clone it into as many reader threads as
//! // needed, each pinning its own snapshots.
//! let mut reader = ReadSession::new(handle);
//! let out = reader.run("MATCH (p:Person) RETURN p.name AS name").unwrap();
//! assert_eq!(out.rows.len(), 1);
//!
//! session.run("CREATE (:Person {name: 'Grace'})").unwrap();
//! // Still pinned: the reader does not see the new commit until refreshed.
//! let out = reader.run("MATCH (p:Person) RETURN count(*) AS n").unwrap();
//! assert_eq!(out.single().and_then(|v| v.as_i64()), Some(1));
//! reader.refresh();
//! let out = reader.run("MATCH (p:Person) RETURN count(*) AS n").unwrap();
//! assert_eq!(out.single().and_then(|v| v.as_i64()), Some(2));
//! ```

use crate::error::TriggerError;
use pg_cypher::{
    run_prepared, CypherError, Params, Prepared, QueryOutput, Row, StatementCache, StatementClass,
    Target,
};
use pg_graph::{GraphHandle, IndexProbes, Snapshot};
use std::sync::Arc;

/// A read-only query session over an epoch-pinned [`Snapshot`].
///
/// Create one per reader thread from a [`GraphHandle`] (see
/// [`crate::Session::reader_handle`]). Queries run against the pinned
/// epoch until [`ReadSession::refresh`] re-pins to the latest published
/// one; updating clauses are rejected by the executor. The session is
/// `Send`, so it can be built on one thread and moved into another.
pub struct ReadSession {
    handle: GraphHandle,
    snapshot: Snapshot,
    now_ms: i64,
    /// Statements prepared from text by [`ReadSession::prepare`]. Holds
    /// parsed texts only — never rows, plans or a snapshot.
    statements: StatementCache,
}

impl ReadSession {
    /// Pin the latest published epoch from `handle`.
    pub fn new(handle: GraphHandle) -> Self {
        let snapshot = handle.snapshot();
        ReadSession {
            handle,
            snapshot,
            now_ms: 0,
            statements: StatementCache::new(),
        }
    }

    /// The committed epoch this session is currently pinned to.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Re-pin to the latest published epoch, returning it. Cheap (two
    /// `Arc` clones under the publication lock); the previous version is
    /// released, letting the store reclaim it once unshared.
    pub fn refresh(&mut self) -> u64 {
        self.snapshot = self.handle.snapshot();
        self.snapshot.epoch()
    }

    /// The pinned snapshot, for direct [`pg_graph::GraphView`] access.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The query-time clock (advanced by one second per statement, like
    /// the writer session's).
    pub fn now_ms(&self) -> i64 {
        self.now_ms
    }

    pub fn set_now_ms(&mut self, now_ms: i64) {
        self.now_ms = now_ms;
    }

    /// Run one read-only query against the pinned snapshot.
    pub fn run(&mut self, src: &str) -> Result<QueryOutput, TriggerError> {
        self.run_with_params(src, &Params::new())
    }

    pub fn run_with_params(
        &mut self,
        src: &str,
        params: &Params,
    ) -> Result<QueryOutput, TriggerError> {
        let stmt = self.prepare(src)?;
        self.run_prepared(&stmt, Vec::new(), params)
    }

    /// Prepare `src` through this session's statement cache: classify
    /// it and, unless it is DDL, parse it — once per distinct text.
    pub fn prepare(&mut self, src: &str) -> Result<Arc<Prepared>, TriggerError> {
        Ok(self.statements.get_or_prepare(src)?)
    }

    /// Run a prepared query against the pinned snapshot from `seeds` —
    /// the one execution entry point of a read session. Only the query
    /// class runs here: DDL and `EXPLAIN` belong to the writer.
    pub fn run_prepared(
        &mut self,
        stmt: &Prepared,
        seeds: Vec<Row>,
        params: &Params,
    ) -> Result<QueryOutput, TriggerError> {
        match stmt.class() {
            StatementClass::Query => {}
            StatementClass::Explain => return Err(CypherError::ReadOnly("EXPLAIN").into()),
            StatementClass::TriggerDdl | StatementClass::IndexDdl => {
                return Err(CypherError::ReadOnly("DDL").into())
            }
        }
        self.now_ms += 1000;
        let target = Target::Read(&self.snapshot);
        Ok(run_prepared(target, stmt, seeds, params, self.now_ms)?)
    }

    /// This session's own index-probe counters (see
    /// [`pg_graph::IndexProbes`]); independent of the writer's and of
    /// every other reader's. Reset on [`ReadSession::refresh`] (fresh
    /// snapshot, fresh counters).
    pub fn index_probes(&self) -> IndexProbes {
        self.snapshot.index_probes()
    }

    /// Reset this session's probe counters to zero.
    pub fn reset_index_probes(&self) {
        self.snapshot.reset_index_probes()
    }
}
