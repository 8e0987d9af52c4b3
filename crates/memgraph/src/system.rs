//! Emulation of Memgraph's trigger subsystem (paper §5.2).
//!
//! ```text
//! CREATE TRIGGER trigger_name
//! [ ON [ () | --> ] CREATE | UPDATE | DELETE ]
//! [ BEFORE | AFTER ] COMMIT
//! EXECUTE openCypherStatements
//! ```
//!
//! `BEFORE COMMIT` runs inside the committing transaction (the paper's
//! ONCOMMIT); `AFTER COMMIT` runs asynchronously after it. As the paper
//! notes, "the trigger management implementations … are identical to those
//! of Neo4j APOC procedures, therefore also in Memgraph triggers do not
//! correctly cascade" — trigger effects never re-activate triggers here.

use crate::vars::{memgraph_vars, EventClasses};
use pg_cypher::lexer::lex;
use pg_cypher::token::TokenKind;
use pg_cypher::{
    parse_query_lenient, run_ast, run_query, CypherError, Params, Query, QueryOutput, Row,
};
use pg_graph::Graph;
use std::collections::VecDeque;

/// Which items an event filter watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectFilter {
    /// `ON ()` — vertices.
    Vertex,
    /// `ON -->` — edges.
    Edge,
    /// No object marker — any object.
    Any,
}

/// The monitored operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFilter {
    Create,
    Update,
    Delete,
}

/// Trigger execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPhase {
    Before,
    After,
}

/// A parsed Memgraph trigger.
#[derive(Debug, Clone)]
pub struct MemgraphTrigger {
    pub name: String,
    /// `None` = fire on any event.
    pub filter: Option<(ObjectFilter, OpFilter)>,
    pub phase: CommitPhase,
    pub statement: Query,
}

/// Errors from the Memgraph emulation layer.
#[derive(Debug, Clone, PartialEq)]
pub enum MemgraphError {
    Cypher(CypherError),
    Syntax(String),
    UnknownTrigger(String),
    DuplicateTrigger(String),
}

impl std::fmt::Display for MemgraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemgraphError::Cypher(e) => write!(f, "{e}"),
            MemgraphError::Syntax(m) => write!(f, "trigger syntax error: {m}"),
            MemgraphError::UnknownTrigger(n) => write!(f, "unknown trigger '{n}'"),
            MemgraphError::DuplicateTrigger(n) => write!(f, "trigger '{n}' already exists"),
        }
    }
}

impl std::error::Error for MemgraphError {}

impl From<CypherError> for MemgraphError {
    fn from(e: CypherError) -> Self {
        MemgraphError::Cypher(e)
    }
}

/// Parse Memgraph `CREATE TRIGGER` / `DROP TRIGGER` DDL.
pub fn parse_memgraph_trigger(src: &str) -> Result<MemgraphTrigger, MemgraphError> {
    let tokens = lex(src).map_err(MemgraphError::Cypher)?;
    let mut i = 0usize;
    let word = |i: usize| -> Option<String> {
        match &tokens.get(i)?.kind {
            TokenKind::Ident(s) => Some(s.clone()),
            other => other.as_name().map(|s| s.to_string()),
        }
    };
    let expect_kw = |i: &mut usize, kw: &str| -> Result<(), MemgraphError> {
        match word(*i) {
            Some(w) if w.eq_ignore_ascii_case(kw) => {
                *i += 1;
                Ok(())
            }
            _ => Err(MemgraphError::Syntax(format!("expected {kw}"))),
        }
    };
    // CREATE is a keyword token in our lexer.
    if tokens[i].kind != TokenKind::Create {
        return Err(MemgraphError::Syntax("expected CREATE TRIGGER".into()));
    }
    i += 1;
    expect_kw(&mut i, "TRIGGER")?;
    let name = word(i).ok_or_else(|| MemgraphError::Syntax("expected trigger name".into()))?;
    i += 1;

    // Optional event filter: ON [() | -->] CREATE|UPDATE|DELETE
    let mut filter = None;
    if tokens[i].kind == TokenKind::On {
        i += 1;
        let object = match (&tokens[i].kind, &tokens.get(i + 1).map(|t| t.kind.clone())) {
            (TokenKind::LParen, Some(TokenKind::RParen)) => {
                i += 2;
                ObjectFilter::Vertex
            }
            // `-->` lexes as Minus ArrowRight
            (TokenKind::Minus, Some(TokenKind::ArrowRight)) => {
                i += 2;
                ObjectFilter::Edge
            }
            _ => ObjectFilter::Any,
        };
        let op = match &tokens[i].kind {
            TokenKind::Create => OpFilter::Create,
            TokenKind::Delete => OpFilter::Delete,
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("update") => OpFilter::Update,
            other => {
                return Err(MemgraphError::Syntax(format!(
                    "expected CREATE, UPDATE or DELETE, found {other}"
                )))
            }
        };
        i += 1;
        filter = Some((object, op));
    }

    // [BEFORE | AFTER] COMMIT
    let phase = match word(i) {
        Some(w) if w.eq_ignore_ascii_case("BEFORE") => {
            i += 1;
            CommitPhase::Before
        }
        Some(w) if w.eq_ignore_ascii_case("AFTER") => {
            i += 1;
            CommitPhase::After
        }
        _ => CommitPhase::After,
    };
    expect_kw(&mut i, "COMMIT")?;
    expect_kw(&mut i, "EXECUTE")?;

    let body_src = &src[tokens[i].pos..];
    let statement = parse_query_lenient(body_src).map_err(MemgraphError::Cypher)?;
    Ok(MemgraphTrigger {
        name,
        filter,
        phase,
        statement,
    })
}

/// A Memgraph database emulation with trigger support.
pub struct MemgraphDb {
    graph: Graph,
    triggers: Vec<MemgraphTrigger>,
    after_queue: VecDeque<(String, Row)>,
    now_ms: i64,
    /// Run AFTER COMMIT triggers immediately after each commit.
    pub auto_drain_after: bool,
    pub fired: u64,
}

impl Default for MemgraphDb {
    fn default() -> Self {
        MemgraphDb::new()
    }
}

impl MemgraphDb {
    pub fn new() -> Self {
        MemgraphDb {
            graph: Graph::new(),
            triggers: Vec::new(),
            after_queue: VecDeque::new(),
            now_ms: 0,
            auto_drain_after: true,
            fired: 0,
        }
    }

    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// `CREATE TRIGGER …`.
    pub fn create_trigger(&mut self, ddl: &str) -> Result<String, MemgraphError> {
        let trig = parse_memgraph_trigger(ddl)?;
        if self.triggers.iter().any(|t| t.name == trig.name) {
            return Err(MemgraphError::DuplicateTrigger(trig.name));
        }
        let name = trig.name.clone();
        self.triggers.push(trig);
        Ok(name)
    }

    /// `DROP TRIGGER name`.
    pub fn drop_trigger(&mut self, name: &str) -> Result<(), MemgraphError> {
        let before = self.triggers.len();
        self.triggers.retain(|t| t.name != name);
        if self.triggers.len() == before {
            Err(MemgraphError::UnknownTrigger(name.to_string()))
        } else {
            Ok(())
        }
    }

    pub fn trigger_names(&self) -> Vec<String> {
        self.triggers.iter().map(|t| t.name.clone()).collect()
    }

    fn filter_matches(filter: &Option<(ObjectFilter, OpFilter)>, classes: &EventClasses) -> bool {
        let Some((object, op)) = filter else {
            return classes.any();
        };
        let (vertex, edge) = match op {
            OpFilter::Create => (classes.vertex_create, classes.edge_create),
            OpFilter::Update => (classes.vertex_update, classes.edge_update),
            OpFilter::Delete => (classes.vertex_delete, classes.edge_delete),
        };
        match object {
            ObjectFilter::Vertex => vertex,
            ObjectFilter::Edge => edge,
            ObjectFilter::Any => vertex || edge,
        }
    }

    /// Run one transaction with trigger processing.
    pub fn run_tx(&mut self, statements: &[&str]) -> Result<Vec<QueryOutput>, MemgraphError> {
        self.now_ms += 1000;
        let now = self.now_ms;
        let (mut classes, mut vars) = (EventClasses::default(), Row::new());
        let outputs = self.graph.transact(|g| -> Result<_, CypherError> {
            let tx_mark = g.mark();
            let outputs = statements
                .iter()
                .map(|src| run_query(g, src, &Params::new(), now))
                .collect::<Result<Vec<_>, _>>()?;
            let delta = g.delta_since(tx_mark);
            (classes, vars) = (EventClasses::of(&delta), memgraph_vars(&delta));
            // BEFORE COMMIT triggers run inside the transaction (the
            // paper's ONCOMMIT), without cascading.
            for t in &self.triggers {
                if t.phase == CommitPhase::Before && Self::filter_matches(&t.filter, &classes) {
                    run_ast(g, &t.statement, vec![vars.clone()], &Params::new(), now)?;
                    self.fired += 1;
                }
            }
            Ok(outputs)
        })?;

        // AFTER COMMIT triggers are queued (asynchronous in Memgraph).
        for t in &self.triggers {
            if t.phase == CommitPhase::After && Self::filter_matches(&t.filter, &classes) {
                self.after_queue.push_back((t.name.clone(), vars.clone()));
            }
        }
        if self.auto_drain_after {
            self.drain_after()?;
        }
        Ok(outputs)
    }

    /// Execute pending AFTER COMMIT activations (each in a new transaction,
    /// against the current state — same race as APOC `afterAsync`).
    pub fn drain_after(&mut self) -> Result<usize, MemgraphError> {
        let mut n = 0;
        while let Some((name, vars)) = self.after_queue.pop_front() {
            let Some(t) = self.triggers.iter().find(|t| t.name == name) else {
                continue;
            };
            let now = self.now_ms;
            self.graph
                .transact(|g| run_ast(g, &t.statement, vec![vars], &Params::new(), now))?;
            self.fired += 1;
            n += 1;
        }
        Ok(n)
    }

    pub fn pending_after(&self) -> usize {
        self.after_queue.len()
    }

    /// Query helper without trigger processing.
    pub fn query(&mut self, src: &str) -> Result<QueryOutput, MemgraphError> {
        let now = self.now_ms;
        self.graph
            .transact(|g| run_query(g, src, &Params::new(), now))
            .map_err(MemgraphError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_graph::Value;

    fn count(db: &mut MemgraphDb, label: &str) -> i64 {
        db.query(&format!("MATCH (n:{label}) RETURN count(*) AS n"))
            .unwrap()
            .single()
            .and_then(|v| v.as_i64())
            .unwrap()
    }

    #[test]
    fn parse_ddl_variants() {
        let t = parse_memgraph_trigger(
            "CREATE TRIGGER t ON () CREATE AFTER COMMIT EXECUTE CREATE (:Log)",
        )
        .unwrap();
        assert_eq!(t.filter, Some((ObjectFilter::Vertex, OpFilter::Create)));
        assert_eq!(t.phase, CommitPhase::After);

        let t = parse_memgraph_trigger(
            "CREATE TRIGGER t ON --> DELETE BEFORE COMMIT EXECUTE CREATE (:Log)",
        )
        .unwrap();
        assert_eq!(t.filter, Some((ObjectFilter::Edge, OpFilter::Delete)));
        assert_eq!(t.phase, CommitPhase::Before);

        let t =
            parse_memgraph_trigger("CREATE TRIGGER t ON UPDATE AFTER COMMIT EXECUTE CREATE (:Log)")
                .unwrap();
        assert_eq!(t.filter, Some((ObjectFilter::Any, OpFilter::Update)));

        let t =
            parse_memgraph_trigger("CREATE TRIGGER t AFTER COMMIT EXECUTE CREATE (:Log)").unwrap();
        assert_eq!(t.filter, None);

        assert!(parse_memgraph_trigger(
            "CREATE TRIGGER t ON () FROB AFTER COMMIT EXECUTE RETURN 1"
        )
        .is_err());
        assert!(parse_memgraph_trigger("DROP TRIGGER t").is_err());
    }

    #[test]
    fn figure_3_style_trigger_fires() {
        // Paper Figure 3: UNWIND createdVertices, CASE-flag filtering.
        let mut db = MemgraphDb::new();
        db.create_trigger(
            "CREATE TRIGGER newCritical ON () CREATE AFTER COMMIT EXECUTE
             UNWIND createdVertices AS newNode
             WITH CASE WHEN 'Mutation' IN labels(newNode) THEN newNode END AS flag, newNode AS newNode
             WHERE flag IS NOT NULL
             CREATE (:Alert {mutation: newNode.name})",
        )
        .unwrap();
        db.run_tx(&["CREATE (:Mutation {name: 'D614G'}), (:Other)"])
            .unwrap();
        let out = db.query("MATCH (a:Alert) RETURN a.mutation AS m").unwrap();
        assert_eq!(out.rows, vec![vec![Value::str("D614G")]]);
    }

    #[test]
    fn before_commit_joins_transaction() {
        let mut db = MemgraphDb::new();
        db.create_trigger(
            "CREATE TRIGGER tally ON () CREATE BEFORE COMMIT EXECUTE
             CREATE (:CommitLog {n: size(createdVertices)})",
        )
        .unwrap();
        db.run_tx(&["CREATE (:P), (:P)"]).unwrap();
        let out = db.query("MATCH (c:CommitLog) RETURN c.n AS n").unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn event_filters_select_triggers() {
        let mut db = MemgraphDb::new();
        db.create_trigger("CREATE TRIGGER onv ON () CREATE AFTER COMMIT EXECUTE CREATE (:VLog)")
            .unwrap();
        db.create_trigger("CREATE TRIGGER one ON --> CREATE AFTER COMMIT EXECUTE CREATE (:ELog)")
            .unwrap();
        db.run_tx(&["CREATE (:P)"]).unwrap();
        assert_eq!(count(&mut db, "VLog"), 1);
        assert_eq!(count(&mut db, "ELog"), 0);
        db.run_tx(&["MATCH (p:P) CREATE (p)-[:R]->(:Q)"]).unwrap();
        // vertex creation AND edge creation in that tx
        assert_eq!(count(&mut db, "VLog"), 2);
        assert_eq!(count(&mut db, "ELog"), 1);
    }

    #[test]
    fn triggers_do_not_cascade() {
        let mut db = MemgraphDb::new();
        db.create_trigger(
            "CREATE TRIGGER t1 ON () CREATE AFTER COMMIT EXECUTE
             UNWIND createdVertices AS v
             WITH v WHERE 'A' IN labels(v)
             CREATE (:B)",
        )
        .unwrap();
        db.create_trigger(
            "CREATE TRIGGER t2 ON () CREATE AFTER COMMIT EXECUTE
             UNWIND createdVertices AS v
             WITH v WHERE 'B' IN labels(v)
             CREATE (:C)",
        )
        .unwrap();
        db.run_tx(&["CREATE (:A)"]).unwrap();
        assert_eq!(count(&mut db, "B"), 1);
        assert_eq!(count(&mut db, "C"), 0); // no cascade (§5.2)
    }

    #[test]
    fn update_filter_and_set_vertex_properties() {
        let mut db = MemgraphDb::new();
        db.create_trigger(
            "CREATE TRIGGER watch ON () UPDATE AFTER COMMIT EXECUTE
             UNWIND setVertexProperties AS pe
             WITH pe WHERE pe.key = 'whoDesignation'
             CREATE (:Alert {was: pe.old_value, now: pe.value})",
        )
        .unwrap();
        db.run_tx(&["CREATE (:Lineage {whoDesignation: 'Indian'})"])
            .unwrap();
        // creation counts as vertex update too (raw props), 1 alert
        db.run_tx(&["MATCH (l:Lineage) SET l.whoDesignation = 'Delta'"])
            .unwrap();
        let out = db
            .query("MATCH (a:Alert) RETURN a.was AS w, a.now AS n ORDER BY w")
            .unwrap();
        // NULL sorts last under ORDER BY
        assert_eq!(
            out.rows,
            vec![
                vec![Value::str("Indian"), Value::str("Delta")],
                vec![Value::Null, Value::str("Indian")],
            ]
        );
    }

    #[test]
    fn duplicate_and_unknown_triggers() {
        let mut db = MemgraphDb::new();
        db.create_trigger("CREATE TRIGGER t AFTER COMMIT EXECUTE CREATE (:X)")
            .unwrap();
        assert!(matches!(
            db.create_trigger("CREATE TRIGGER t AFTER COMMIT EXECUTE CREATE (:X)"),
            Err(MemgraphError::DuplicateTrigger(_))
        ));
        db.drop_trigger("t").unwrap();
        assert!(matches!(
            db.drop_trigger("t"),
            Err(MemgraphError::UnknownTrigger(_))
        ));
    }
}
