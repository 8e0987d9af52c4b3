//! Emulation of the Neo4j APOC trigger subsystem (paper §5.1), faithful to
//! its documented behaviour **including the limitations the paper reports**:
//!
//! * `apoc.trigger.install / drop / dropAll / stop / start`;
//! * phases `before` (at commit, inside the transaction), `rollback`,
//!   `after` (new transaction after commit), `afterAsync` (new transaction,
//!   possibly interleaving with later transactions);
//! * in the `before` phase **all installed triggers run once, in
//!   alphabetical order, regardless of the monitored type**;
//! * **triggers do not cascade**: data generated by a trigger statement does
//!   not re-activate triggers (APOC excludes trigger-generated metadata);
//! * `afterAsync` executions run against whatever state the store has when
//!   they are drained — they are *not* guaranteed to see the state produced
//!   by the activating transaction (the paper's race-condition caveat).

use crate::meta::apoc_params;
use crate::statement::{execute_apoc_statement, parse_apoc_statement, ApocStatement};
use pg_cypher::{run_query, CypherError, Params, QueryOutput};
use pg_graph::Graph;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// APOC trigger phases (the `selector` parameter of
/// `apoc.trigger.install`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Right before commit, inside the transaction (the paper's ONCOMMIT).
    Before,
    /// After the transaction was rolled back.
    Rollback,
    /// In a new transaction after the commit, same thread.
    After,
    /// In a new transaction after the commit, separate thread (advised by
    /// the APOC community; subject to the stale-state race).
    AfterAsync,
}

impl Phase {
    pub fn parse(s: &str) -> Option<Phase> {
        Some(match s {
            "before" => Phase::Before,
            "rollback" => Phase::Rollback,
            "after" => Phase::After,
            "afterAsync" => Phase::AfterAsync,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Phase::Before => "before",
            Phase::Rollback => "rollback",
            Phase::After => "after",
            Phase::AfterAsync => "afterAsync",
        }
    }
}

#[derive(Debug, Clone)]
struct ApocTrigger {
    statement: ApocStatement,
    phase: Phase,
    paused: bool,
}

/// Errors from the APOC emulation layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ApocError {
    Cypher(CypherError),
    UnknownTrigger(String),
    BadSelector(String),
}

impl std::fmt::Display for ApocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApocError::Cypher(e) => write!(f, "{e}"),
            ApocError::UnknownTrigger(n) => write!(f, "unknown trigger '{n}'"),
            ApocError::BadSelector(s) => write!(f, "unknown phase selector '{s}'"),
        }
    }
}

impl std::error::Error for ApocError {}

impl From<CypherError> for ApocError {
    fn from(e: CypherError) -> Self {
        ApocError::Cypher(e)
    }
}

/// A Neo4j-with-APOC-triggers database emulation.
pub struct ApocDb {
    graph: Graph,
    /// Keyed by name: APOC's `before` phase iterates alphabetically.
    triggers: BTreeMap<String, ApocTrigger>,
    async_queue: VecDeque<(String, Params)>,
    now_ms: i64,
    /// Drain `afterAsync` triggers automatically right after each commit.
    /// Disable to expose the stale-state race (§5.1: "other transactions can
    /// occur after the commit of the activating transaction and before the
    /// trigger actually starts its execution").
    pub auto_drain_async: bool,
    /// Trigger statements fired (then-branch executions).
    pub fired: u64,
}

impl Default for ApocDb {
    fn default() -> Self {
        ApocDb::new()
    }
}

impl ApocDb {
    pub fn new() -> Self {
        ApocDb {
            graph: Graph::new(),
            triggers: BTreeMap::new(),
            async_queue: VecDeque::new(),
            now_ms: 0,
            auto_drain_async: true,
            fired: 0,
        }
    }

    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// `apoc.trigger.install(databaseName, name, statement, {phase})`.
    /// The database name is accepted and ignored (single-database store).
    pub fn install(
        &mut self,
        _database: &str,
        name: &str,
        statement: &str,
        selector: &str,
    ) -> Result<(), ApocError> {
        let phase =
            Phase::parse(selector).ok_or_else(|| ApocError::BadSelector(selector.to_string()))?;
        let statement = parse_apoc_statement(statement)?;
        self.triggers.insert(
            name.to_string(),
            ApocTrigger {
                statement,
                phase,
                paused: false,
            },
        );
        Ok(())
    }

    /// `apoc.trigger.drop`.
    pub fn drop_trigger(&mut self, name: &str) -> Result<(), ApocError> {
        self.triggers
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ApocError::UnknownTrigger(name.to_string()))
    }

    /// `apoc.trigger.dropAll`.
    pub fn drop_all(&mut self) {
        self.triggers.clear();
    }

    /// `apoc.trigger.stop` / `apoc.trigger.start`.
    pub fn set_paused(&mut self, name: &str, paused: bool) -> Result<(), ApocError> {
        match self.triggers.get_mut(name) {
            Some(t) => {
                t.paused = paused;
                Ok(())
            }
            None => Err(ApocError::UnknownTrigger(name.to_string())),
        }
    }

    pub fn trigger_names(&self) -> Vec<String> {
        self.triggers.keys().cloned().collect()
    }

    /// Run one transaction (a sequence of Cypher statements) with APOC
    /// trigger processing. On statement failure the transaction is rolled
    /// back and `rollback`-phase triggers run.
    pub fn run_tx(&mut self, statements: &[&str]) -> Result<Vec<QueryOutput>, ApocError> {
        self.now_ms += 1000;
        let now = self.now_ms;
        // Transition metadata of the whole transaction — of its part up to
        // the failing statement, when one fails.
        let mut params = Params::new();
        let tx: Result<_, CypherError> = self.graph.transact(|g| {
            let tx_mark = g.mark();
            let mut outputs = Vec::new();
            for src in statements {
                let out = run_query(g, src, &Params::new(), now);
                params = apoc_params(&g.delta_since(tx_mark));
                outputs.push(out?);
            }
            // `before` phase: ALL installed before-triggers run once, in
            // alphabetical order, regardless of the monitored type (§5.1).
            // Their effects join the transaction but never re-activate
            // triggers; a failing one aborts the transaction.
            let before = self.triggers.values();
            for t in before.filter(|t| t.phase == Phase::Before && !t.paused) {
                self.fired += execute_apoc_statement(g, &t.statement, &params, now)?;
            }
            Ok(outputs)
        });
        let outputs = match tx {
            Ok(outputs) => outputs,
            Err(e) => {
                self.fire_phase(Phase::Rollback, &params)?;
                return Err(e.into());
            }
        };

        // `after` phase: new transaction after the commit.
        self.fire_phase(Phase::After, &params)?;

        // `afterAsync`: queued; drained now or later depending on config.
        for (name, t) in &self.triggers {
            if t.phase == Phase::AfterAsync && !t.paused {
                self.async_queue.push_back((name.clone(), params.clone()));
            }
        }
        if self.auto_drain_async {
            self.drain_async()?;
        }
        Ok(outputs)
    }

    /// Execute all pending `afterAsync` trigger activations against the
    /// **current** state (which may differ from the state their activating
    /// transaction produced).
    pub fn drain_async(&mut self) -> Result<usize, ApocError> {
        let mut n = 0;
        while let Some((name, params)) = self.async_queue.pop_front() {
            let Some(t) = self.triggers.get(&name).filter(|t| !t.paused) else {
                continue;
            };
            let now = self.now_ms;
            self.fired += self
                .graph
                .transact(|g| execute_apoc_statement(g, &t.statement, &params, now))?;
            n += 1;
        }
        Ok(n)
    }

    /// How many `afterAsync` activations are pending.
    pub fn pending_async(&self) -> usize {
        self.async_queue.len()
    }

    /// Run every active trigger of `phase`, each in a transaction of its own.
    fn fire_phase(&mut self, phase: Phase, params: &Params) -> Result<(), ApocError> {
        let now = self.now_ms;
        for t in self.triggers.values() {
            if t.phase == phase && !t.paused {
                self.fired += self
                    .graph
                    .transact(|g| execute_apoc_statement(g, &t.statement, params, now))?;
            }
        }
        Ok(())
    }

    /// Read-only query helper (no trigger processing).
    pub fn query(&mut self, src: &str) -> Result<QueryOutput, ApocError> {
        let now = self.now_ms;
        self.graph
            .transact(|g| run_query(g, src, &Params::new(), now))
            .map_err(ApocError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_graph::Value;

    fn count(db: &mut ApocDb, label: &str) -> i64 {
        db.query(&format!("MATCH (n:{label}) RETURN count(*) AS n"))
            .unwrap()
            .single()
            .and_then(|v| v.as_i64())
            .unwrap()
    }

    const LOG_CREATED: &str = "
        UNWIND $createdNodes AS cNodes
        CALL apoc.do.when(cNodes:P, 'CREATE (:Log)', '', {cNodes: cNodes})
        YIELD value RETURN *";

    #[test]
    fn after_async_trigger_fires_on_commit() {
        let mut db = ApocDb::new();
        db.install("neo4j", "log", LOG_CREATED, "afterAsync")
            .unwrap();
        db.run_tx(&["CREATE (:P), (:P), (:Q)"]).unwrap();
        assert_eq!(count(&mut db, "Log"), 2);
        assert_eq!(db.fired, 2);
    }

    #[test]
    fn before_phase_runs_inside_tx_alphabetically() {
        let mut db = ApocDb::new();
        // both fire regardless of monitored type; order = alphabetical
        db.install(
            "neo4j",
            "zzz",
            "UNWIND [1] AS one MATCH (t:Trace) SET t.log = t.log + 'z'",
            "before",
        )
        .unwrap();
        db.install(
            "neo4j",
            "aaa",
            "UNWIND [1] AS one MATCH (t:Trace) SET t.log = t.log + 'a'",
            "before",
        )
        .unwrap();
        db.run_tx(&["CREATE (:Trace {log: ''})"]).unwrap();
        db.run_tx(&["CREATE (:Anything)"]).unwrap();
        let out = db.query("MATCH (t:Trace) RETURN t.log AS l").unwrap();
        // two transactions × "az" each (both triggers fire on both txs)
        assert_eq!(out.rows, vec![vec![Value::str("azaz")]]);
    }

    #[test]
    fn triggers_do_not_cascade() {
        let mut db = ApocDb::new();
        db.install(
            "neo4j",
            "t1",
            "UNWIND $createdNodes AS c CALL apoc.do.when(c:A, 'CREATE (:B)', '', {c: c}) YIELD value RETURN *",
            "afterAsync",
        )
        .unwrap();
        db.install(
            "neo4j",
            "t2",
            "UNWIND $createdNodes AS c CALL apoc.do.when(c:B, 'CREATE (:C)', '', {c: c}) YIELD value RETURN *",
            "afterAsync",
        )
        .unwrap();
        db.run_tx(&["CREATE (:A)"]).unwrap();
        assert_eq!(count(&mut db, "B"), 1);
        // the cascade is blocked: B was trigger-generated, t2 never sees it
        assert_eq!(count(&mut db, "C"), 0);
    }

    #[test]
    fn after_async_sees_later_state_when_drained_late() {
        let mut db = ApocDb::new();
        db.auto_drain_async = false;
        db.install(
            "neo4j",
            "snapshot",
            "UNWIND $createdNodes AS c
             CALL apoc.do.when(c:P, 'MATCH (m:Marker) CREATE (:Seen {v: m.v})', '', {c: c})
             YIELD value RETURN *",
            "afterAsync",
        )
        .unwrap();
        db.run_tx(&["CREATE (:Marker {v: 1})"]).unwrap();
        db.run_tx(&["CREATE (:P)"]).unwrap();
        // APOC enqueues afterAsync for every transaction; the first one's
        // do.when condition will simply be false.
        assert_eq!(db.pending_async(), 2);
        // another transaction slips in before the trigger runs
        db.run_tx(&["MATCH (m:Marker) SET m.v = 2"]).unwrap();
        db.drain_async().unwrap();
        let out = db.query("MATCH (s:Seen) RETURN s.v AS v").unwrap();
        // the trigger observed the *later* state — the §5.1 race
        assert_eq!(out.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn rollback_phase_fires_on_failure() {
        let mut db = ApocDb::new();
        db.install(
            "neo4j",
            "onrb",
            "UNWIND [1] AS one CREATE (:RolledBack)",
            "rollback",
        )
        .unwrap();
        let err = db.run_tx(&["CREATE (:P)", "MATCH (p:P) DELETE ghost"]);
        assert!(err.is_err());
        assert_eq!(count(&mut db, "P"), 0); // tx rolled back
        assert_eq!(count(&mut db, "RolledBack"), 1);
    }

    #[test]
    fn stop_start_drop() {
        let mut db = ApocDb::new();
        db.install("neo4j", "log", LOG_CREATED, "afterAsync")
            .unwrap();
        db.set_paused("log", true).unwrap();
        db.run_tx(&["CREATE (:P)"]).unwrap();
        assert_eq!(count(&mut db, "Log"), 0);
        db.set_paused("log", false).unwrap();
        db.run_tx(&["CREATE (:P)"]).unwrap();
        assert_eq!(count(&mut db, "Log"), 1);
        db.drop_trigger("log").unwrap();
        db.run_tx(&["CREATE (:P)"]).unwrap();
        assert_eq!(count(&mut db, "Log"), 1);
        assert!(db.drop_trigger("log").is_err());
        assert!(db.install("neo4j", "x", LOG_CREATED, "sometimes").is_err());
    }
}
