//! Parser for the PG-Trigger DDL (paper Figure 1) plus `DROP TRIGGER`.
//!
//! The grammar, verbatim from the paper:
//!
//! ```text
//! CREATE TRIGGER <name> <time> <event>
//! ON <label>[.<property>]
//! [REFERENCING <alias for old or new>...]
//! FOR <granularity> <item>
//! [WHEN <condition>]
//! BEGIN
//! <statement>
//! END
//!
//! <time>        ::= { BEFORE | AFTER | ONCOMMIT | DETACHED }
//! <event>       ::= { CREATE | DELETE | SET | REMOVE }
//! <granularity> ::= { EACH | ALL }
//! <item>        ::= { NODE | RELATIONSHIP }
//! ```
//!
//! The embedded `<condition>` and `<statement>` are Cypher fragments parsed
//! by `pg-cypher` (lenient mode, which accepts the paper's `THEN` /
//! `BEGIN … END` block punctuation).

use crate::error::InstallError;
use crate::spec::*;
use pg_cypher::ast::visit::{self, Node};
use pg_cypher::ast::{Clause, RemoveItem, SetItem};
use pg_cypher::lexer::lex;
use pg_cypher::token::{Token, TokenKind};
use pg_cypher::{parse_expression, parse_query_lenient, Query, StatementClass};
use pg_graph::{IndexDef, IndexOn};
use std::sync::Arc;

/// A parsed DDL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum DdlStatement {
    CreateTrigger(TriggerSpec),
    DropTrigger(String),
}

/// Quick check whether a source string looks like trigger DDL (used by the
/// session to dispatch between DDL and queries).
pub fn is_trigger_ddl(src: &str) -> bool {
    StatementClass::of(src) == StatementClass::TriggerDdl
}

/// A parsed property-index DDL statement: `CREATE INDEX ON <def>` or
/// `DROP INDEX ON <def>`, with `<def>` as [`IndexDef`] prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDdl {
    /// `CREATE` (else `DROP`).
    pub create: bool,
    pub def: IndexDef,
}

/// Quick check whether a source string looks like index DDL.
pub fn is_index_ddl(src: &str) -> bool {
    StatementClass::of(src) == StatementClass::IndexDdl
}

/// Parse `CREATE INDEX ON :Label(key)` / `DROP INDEX ON :Label(key)`
/// (Neo4j's classic index DDL shape; the label may be quoted like the
/// trigger grammar's `ON 'Mutation'`) and the relationship form
/// `CREATE INDEX ON -[:TYPE(key)]-` / `DROP INDEX ON -[:TYPE(key)]-`
/// (the surrounding dashes are optional: `[:TYPE(key)]` also parses).
pub fn parse_index_ddl(src: &str) -> Result<IndexDdl, InstallError> {
    let tokens = lex(src).map_err(InstallError::Parse)?;
    let mut p = DdlParser {
        src,
        tokens,
        pos: 0,
    };
    let create = if p.eat_ident("DROP") {
        false
    } else if p.peek() == &TokenKind::Create {
        p.bump();
        true
    } else {
        return Err(p.err("expected CREATE INDEX or DROP INDEX"));
    };
    if !p.eat_ident("INDEX") {
        return Err(p.err("expected INDEX"));
    }
    if p.peek() != &TokenKind::On {
        return Err(p.err("expected ON"));
    }
    p.bump();

    // Relationship form `[-] [ : TYPE ( key (, key)* ) ] [-]`, else the
    // node form `[:] Label ( key (, key)* )`.
    let leading_dash = p.peek() == &TokenKind::Minus;
    if leading_dash {
        p.bump();
    }
    let on_rel = p.peek() == &TokenKind::LBracket;
    if on_rel {
        p.bump();
    } else if leading_dash {
        return Err(p.err("expected '[' after '-' in relationship index DDL"));
    }
    if p.peek() == &TokenKind::Colon {
        p.bump();
    }
    let name = p.expect_name()?;
    let columns = p.paren_keys()?;
    if on_rel {
        if p.peek() != &TokenKind::RBracket {
            return Err(p.err("expected ']' after the relationship key"));
        }
        p.bump();
        if p.peek() == &TokenKind::Minus {
            p.bump();
        }
    }
    p.expect_end("index DDL")?;
    let on = if on_rel {
        IndexOn::RelType(name)
    } else {
        IndexOn::Label(name)
    };
    let def = IndexDef { on, columns };
    Ok(IndexDdl { create, def })
}

/// Parse a `CREATE TRIGGER` / `DROP TRIGGER` statement.
pub fn parse_trigger_ddl(src: &str) -> Result<DdlStatement, InstallError> {
    let tokens = lex(src).map_err(InstallError::Parse)?;
    let mut p = DdlParser {
        src,
        tokens,
        pos: 0,
    };
    p.parse()
}

struct DdlParser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
}

impl<'a> DdlParser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> InstallError {
        InstallError::Syntax(format!(
            "{} (near offset {})",
            msg.into(),
            self.tokens[self.pos].pos
        ))
    }

    /// A name: identifier, keyword-as-name, or quoted string (the paper
    /// quotes labels: `ON 'Mutation'`).
    fn expect_name(&mut self) -> Result<String, InstallError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(s)
            }
            other => {
                if let Some(n) = other.as_name() {
                    let n = n.to_string();
                    self.bump();
                    Ok(n)
                } else {
                    Err(self.err(format!("expected a name, found {other}")))
                }
            }
        }
    }

    /// `( key (, key)* )` — the parenthesized property key list of index
    /// DDL: one key for single-key indexes, several for composite ones.
    fn paren_keys(&mut self) -> Result<Vec<String>, InstallError> {
        if self.peek() != &TokenKind::LParen {
            return Err(self.err("expected '(' after the label"));
        }
        self.bump();
        let mut keys = vec![self.expect_name()?];
        while self.peek() == &TokenKind::Comma {
            self.bump();
            let key = self.expect_name()?;
            if keys.contains(&key) {
                return Err(self.err(format!("index column '{key}' is repeated")));
            }
            keys.push(key);
        }
        if self.peek() != &TokenKind::RParen {
            return Err(self.err("expected ')' after the property key list"));
        }
        self.bump();
        Ok(keys)
    }

    /// Require end of input (optionally a trailing semicolon).
    fn expect_end(&mut self, what: &str) -> Result<(), InstallError> {
        match self.peek() {
            TokenKind::Eof | TokenKind::Semicolon => Ok(()),
            other => Err(self.err(format!("unexpected input after {what}: {other}"))),
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if let TokenKind::Ident(s) = self.peek() {
            if s.eq_ignore_ascii_case(word) {
                self.bump();
                return true;
            }
        }
        false
    }

    fn parse(&mut self) -> Result<DdlStatement, InstallError> {
        // DROP TRIGGER <name>
        if self.eat_ident("DROP") {
            if !self.eat_ident("TRIGGER") {
                return Err(self.err("expected TRIGGER after DROP"));
            }
            let name = self.expect_name()?;
            return Ok(DdlStatement::DropTrigger(name));
        }
        if self.peek() != &TokenKind::Create {
            return Err(self.err("expected CREATE TRIGGER or DROP TRIGGER"));
        }
        self.bump();
        if !self.eat_ident("TRIGGER") {
            return Err(self.err("expected TRIGGER after CREATE"));
        }
        let name = self.expect_name()?;

        // <time>
        let time = if self.eat_ident("BEFORE") {
            ActionTime::Before
        } else if self.eat_ident("AFTER") {
            ActionTime::After
        } else if self.eat_ident("ONCOMMIT") {
            ActionTime::OnCommit
        } else if self.eat_ident("DETACHED") {
            ActionTime::Detached
        } else {
            return Err(self.err("expected BEFORE, AFTER, ONCOMMIT or DETACHED"));
        };

        // <event>
        let event = match self.peek() {
            TokenKind::Create => EventType::Create,
            TokenKind::Delete => EventType::Delete,
            TokenKind::Set => EventType::Set,
            TokenKind::Remove => EventType::Remove,
            other => {
                return Err(self.err(format!("expected CREATE/DELETE/SET/REMOVE, found {other}")))
            }
        };
        self.bump();

        // ON <label>[.<property>]
        if self.peek() != &TokenKind::On {
            return Err(self.err("expected ON"));
        }
        self.bump();
        let label = self.expect_name()?;
        let property = if self.peek() == &TokenKind::Dot {
            self.bump();
            Some(self.expect_name()?)
        } else {
            None
        };

        // [REFERENCING var AS alias ...]
        let mut referencing = Vec::new();
        if self.eat_ident("REFERENCING") {
            while let TokenKind::Ident(word) = self.peek().clone() {
                let Some(var) = TransitionVar::parse(&word) else {
                    break;
                };
                self.bump();
                if self.peek() != &TokenKind::As {
                    return Err(self.err("expected AS in REFERENCING clause"));
                }
                self.bump();
                let alias = self.expect_name()?;
                referencing.push((var, alias));
                if self.peek() == &TokenKind::Comma {
                    self.bump();
                }
            }
            if referencing.is_empty() {
                return Err(self.err("REFERENCING requires at least one OLD/NEW alias"));
            }
        }

        // FOR <granularity> <item>
        if !self.eat_ident("FOR") {
            return Err(self.err("expected FOR"));
        }
        let granularity = if self.eat_ident("EACH") {
            Granularity::Each
        } else if self.eat_ident("ALL") {
            Granularity::All
        } else {
            return Err(self.err("expected EACH or ALL"));
        };
        let item = if self.eat_ident("NODE") || self.eat_ident("NODES") {
            ItemKind::Node
        } else if self.eat_ident("RELATIONSHIP") || self.eat_ident("RELATIONSHIPS") {
            ItemKind::Relationship
        } else {
            return Err(self.err("expected NODE(S) or RELATIONSHIP(S)"));
        };

        // [WHEN <condition>] — the condition spans up to the body's BEGIN.
        let condition_src = if self.peek() == &TokenKind::When {
            self.bump();
            let start = self.tokens[self.pos].pos;
            let begin_idx = self.find_body_begin()?;
            let end = self.tokens[begin_idx].pos;
            self.pos = begin_idx;
            Some(&self.src[start..end])
        } else {
            None
        };

        // BEGIN <statement> END
        if !self.eat_ident("BEGIN") {
            return Err(self.err("expected BEGIN"));
        }
        let body_start = self.tokens[self.pos].pos;
        let end_idx = self.find_matching_end()?;
        let body_src = &self.src[body_start..self.tokens[end_idx].pos];
        self.pos = end_idx + 1;
        match self.peek() {
            TokenKind::Eof | TokenKind::Semicolon => {}
            other => return Err(self.err(format!("unexpected input after END: {other}"))),
        }

        // Parse embedded fragments.
        let condition = match condition_src {
            None => None,
            Some(text) => Some(Arc::new(parse_condition(text)?.into())),
        };
        let statement = parse_query_lenient(body_src).map_err(InstallError::Parse)?;
        let statement = Arc::new(statement.into());

        let spec = TriggerSpec {
            name,
            time,
            event,
            label,
            property,
            referencing,
            granularity,
            item,
            condition,
            statement,
        };
        validate_spec(&spec)?;
        Ok(DdlStatement::CreateTrigger(spec))
    }

    /// Index of the body's `BEGIN` token (first top-level BEGIN after the
    /// current position; conditions cannot contain BEGIN).
    fn find_body_begin(&self) -> Result<usize, InstallError> {
        for i in self.pos..self.tokens.len() {
            if let TokenKind::Ident(s) = &self.tokens[i].kind {
                if s.eq_ignore_ascii_case("begin") {
                    return Ok(i);
                }
            }
        }
        Err(InstallError::Syntax(
            "missing BEGIN after WHEN condition".into(),
        ))
    }

    /// Index of the `END` matching the body's `BEGIN` (self.pos is just
    /// after BEGIN). `CASE … END` and nested `BEGIN … END` pairs are
    /// balanced.
    fn find_matching_end(&self) -> Result<usize, InstallError> {
        let mut depth = 1usize;
        for i in self.pos..self.tokens.len() {
            match &self.tokens[i].kind {
                TokenKind::Case => depth += 1,
                TokenKind::Ident(s) if s.eq_ignore_ascii_case("begin") => depth += 1,
                TokenKind::End => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(i);
                    }
                }
                _ => {}
            }
        }
        Err(InstallError::Syntax("missing END for trigger body".into()))
    }
}

/// Parse a `WHEN` condition: either a clause pipeline (`MATCH … WITH …
/// WHERE …`) or a bare boolean expression (wrapped as a filtering clause).
fn parse_condition(text: &str) -> Result<Query, InstallError> {
    let trimmed = text.trim();
    let starts_with_clause = {
        let up = trimmed.to_ascii_uppercase();
        ["MATCH", "OPTIONAL", "WITH", "UNWIND", "WHERE", "RETURN"]
            .iter()
            .any(|kw| up.starts_with(kw))
    };
    if starts_with_clause {
        parse_query_lenient(trimmed).map_err(InstallError::Parse)
    } else {
        let expr = parse_expression(trimmed).map_err(InstallError::Parse)?;
        Ok(Query {
            clauses: vec![Clause::Where(expr)],
        })
    }
}

/// Install-time semantic checks (paper §4.2).
pub fn validate_spec(spec: &TriggerSpec) -> Result<(), InstallError> {
    // Label events exist only for nodes (see [`crate::spec::EventKind`]).
    if spec.kind().is_none() {
        return Err(InstallError::Syntax(
            "SET/REMOVE on a relationship requires a property (relationship types are immutable)"
                .into(),
        ));
    }

    // Condition must be read-only.
    if let Some(cond) = &spec.condition {
        if cond.is_updating() {
            return Err(InstallError::UpdatingCondition(spec.name.clone()));
        }
    }

    // REFERENCING variables must match granularity and item kind.
    for (var, _) in &spec.referencing {
        let ok = match spec.granularity {
            Granularity::Each => matches!(var, TransitionVar::Old | TransitionVar::New),
            Granularity::All => match spec.item {
                ItemKind::Node => {
                    matches!(var, TransitionVar::OldNodes | TransitionVar::NewNodes)
                }
                ItemKind::Relationship => {
                    matches!(var, TransitionVar::OldRels | TransitionVar::NewRels)
                }
            },
        };
        if !ok {
            return Err(InstallError::BadReferencing {
                trigger: spec.name.clone(),
                var: var.keyword().to_string(),
                reason: "incompatible with the trigger's granularity/item (paper §4.2: with set-level granularity use *NODES/*RELS matching the FOR clause)",
            });
        }
    }

    // The statement may not set/remove the target label.
    if statement_mutates_label(&spec.statement.query().clauses, &spec.label) {
        return Err(InstallError::TargetLabelMutation {
            trigger: spec.name.clone(),
            label: spec.label.clone(),
        });
    }

    // BEFORE statements may only condition NEW states: reads, SET, ABORT.
    if spec.time == ActionTime::Before {
        if let Some(clause) = first_strong_clause(&spec.statement.query().clauses) {
            return Err(InstallError::BeforeStatementTooStrong {
                trigger: spec.name.clone(),
                clause,
            });
        }
    }
    Ok(())
}

fn statement_mutates_label(clauses: &[Clause], label: &str) -> bool {
    let names = |labels: &[String]| labels.iter().any(|l| l == label);
    let sets = |items: &[SetItem]| {
        items
            .iter()
            .any(|i| matches!(i, SetItem::Labels { labels, .. } if names(labels)))
    };
    let mut found = false;
    visit::clauses(clauses, &mut |node: Node| {
        let Node::Clause(c) = node else {
            return false;
        };
        found |= match c {
            Clause::Set { items } => sets(items),
            Clause::Merge {
                on_create,
                on_match,
                ..
            } => sets(on_create) || sets(on_match),
            Clause::Remove { items } => items
                .iter()
                .any(|i| matches!(i, RemoveItem::Labels { labels, .. } if names(labels))),
            _ => false,
        };
        !found
    });
    found
}

/// The first clause, in walk order, a `BEFORE` statement may not hold.
fn first_strong_clause(clauses: &[Clause]) -> Option<&'static str> {
    let mut found = None;
    visit::clauses(clauses, &mut |node: Node| {
        let Node::Clause(c) = node else {
            return false;
        };
        found = found.or(match c {
            Clause::Create { .. } => Some("CREATE"),
            Clause::Merge { .. } => Some("MERGE"),
            Clause::Delete { .. } => Some("DELETE"),
            Clause::Remove { .. } => Some("REMOVE"),
            _ => None,
        });
        found.is_none()
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create(src: &str) -> TriggerSpec {
        match parse_trigger_ddl(src).unwrap() {
            DdlStatement::CreateTrigger(s) => s,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Paper §6.2.1 — first trigger, verbatim.
    const NEW_CRITICAL_MUTATION: &str = "
        CREATE TRIGGER NewCriticalMutation
        AFTER CREATE
        ON 'Mutation'
        FOR EACH NODE
        WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect)
        BEGIN
          CREATE (:Alert{time:DATETIME(),
                         desc:'New critical mutation',
                         mutation:NEW.name})
        END";

    #[test]
    fn parse_paper_trigger_1() {
        let t = create(NEW_CRITICAL_MUTATION);
        assert_eq!(t.name, "NewCriticalMutation");
        assert_eq!(t.time, ActionTime::After);
        assert_eq!(t.event, EventType::Create);
        assert_eq!(t.label, "Mutation");
        assert_eq!(t.property, None);
        assert_eq!(t.granularity, Granularity::Each);
        assert_eq!(t.item, ItemKind::Node);
        assert!(t.condition.is_some());
        assert_eq!(t.statement.query().clauses.len(), 1);
    }

    /// Paper §6.2.1 — property-event trigger.
    #[test]
    fn parse_paper_trigger_property_event() {
        let t = create(
            "CREATE TRIGGER WhoDesignationChange
             AFTER SET
             ON 'Lineage'.'whoDesignation'
             FOR EACH NODE
             WHEN OLD.whoDesignation <> NEW.whoDesignation
             BEGIN
               CREATE (:Alert{time: DATETIME(),
                 desc:'New Designation for an existing Lineage'})
             END",
        );
        assert_eq!(t.event, EventType::Set);
        assert_eq!(t.label, "Lineage");
        assert_eq!(t.property.as_deref(), Some("whoDesignation"));
    }

    /// Paper §6.2.2 — set-granularity trigger with aggregate condition.
    #[test]
    fn parse_paper_set_granularity() {
        let t = create(
            "CREATE TRIGGER IcuPatientsOverThreshold
             AFTER CREATE
             ON 'IcuPatient'
             FOR ALL NODES
             WHEN
               MATCH (p:HospitalizedPatient:IcuPatient)
                 -[:TreatedAt]-(:Hospital{name:'Sacco'})
               WITH COUNT(p) AS icuPat
               WHERE icuPat > 50
             BEGIN
               CREATE (:Alert{time:DATETIME(),desc:'ICU patients
                 at Sacco Hospital are more than 50'})
             END",
        );
        assert_eq!(t.granularity, Granularity::All);
        let cond = t.condition.unwrap();
        assert_eq!(cond.query().clauses.len(), 2); // MATCH + WITH(where)
    }

    /// Paper §6.2.3 — trigger with FOREACH/THEN/BEGIN body.
    #[test]
    fn parse_paper_move_to_near_hospital() {
        let t = create(
            "CREATE TRIGGER MoveToNearHospital
             AFTER CREATE
             ON 'IcuPatient'
             FOR EACH NODE
             WHEN
               MATCH (NEW:HospitalizedPatient:IcuPatient)
                 -[:TreatedAt]-(h:Hospital)
                 -[:LocatedIn]-(:Region{name:'Lombardy'}),
               MATCH (p:IcuPatient)-[:TreatedAt]-(h)
               WITH COUNT(p) AS TotalIcuPat, h
               WHERE TotalIcuPat > h.icuBeds
             BEGIN
               MATCH (h:Hospital)
                 -[:LocatedIn]-(:Region{name:'Lombardy'}),
               MATCH (pn:NEW)-[:TreatedAt]-(h)
                 -[ct:ConnectedTo]-(hc:Hospital)
               WITH ct, pn, h, hc ORDER BY ct.distance LIMIT 1
               THEN
               BEGIN
                 MATCH (pn)-[c:TreatedAt]-(h)
                 DELETE c
                 CREATE (pn)-[:TreatedAt]->(hc)
               END
             END",
        );
        assert_eq!(t.name, "MoveToNearHospital");
        assert!(t.statement.query().clauses.len() >= 4);
    }

    #[test]
    fn parse_referencing_clause() {
        let t = create(
            "CREATE TRIGGER R AFTER CREATE ON 'P'
             REFERENCING NEWNODES AS admitted
             FOR ALL NODES
             BEGIN CREATE (:Log{n: 1}) END",
        );
        assert_eq!(
            t.referencing,
            vec![(TransitionVar::NewNodes, "admitted".into())]
        );
        assert_eq!(t.var_name(TransitionVar::NewNodes), "admitted");
    }

    #[test]
    fn parse_drop_trigger() {
        assert_eq!(
            parse_trigger_ddl("DROP TRIGGER NewCriticalMutation").unwrap(),
            DdlStatement::DropTrigger("NewCriticalMutation".into())
        );
    }

    #[test]
    fn is_ddl_detects() {
        assert!(is_trigger_ddl(
            "  create trigger t AFTER CREATE ON 'x' FOR EACH NODE BEGIN RETURN 1 END"
        ));
        assert!(is_trigger_ddl("DROP TRIGGER t"));
        assert!(!is_trigger_ddl("MATCH (n) RETURN n"));
        assert!(!is_trigger_ddl("CREATE (n)"));
        assert!(!is_trigger_ddl("CREATE INDEX ON :L(x)"));
    }

    #[test]
    fn parse_index_ddl_shapes() {
        assert!(is_index_ddl("  create index on :L(x)"));
        assert!(is_index_ddl("DROP INDEX ON :L(x)"));
        assert!(!is_index_ddl("CREATE (n)"));
        // every spelling of the operand is one `(scope, columns)` value;
        // `tests/index_session.rs` round-trips all shapes and widths
        for (src, create, def) in [
            (
                "CREATE INDEX ON :Mutation(name)",
                true,
                IndexDef::node("Mutation", &["name"]),
            ),
            // quoted label, no colon (trigger-grammar style), semicolon
            (
                "DROP INDEX ON 'Patient'(status, severity);",
                false,
                IndexDef::node("Patient", &["status", "severity"]),
            ),
            (
                "create index on -[:ConnectedTo(kind, distance)]-",
                true,
                IndexDef::rel("ConnectedTo", &["kind", "distance"]),
            ),
            (
                "DROP INDEX ON [ConnectedTo(distance)]",
                false,
                IndexDef::rel("ConnectedTo", &["distance"]),
            ),
        ] {
            assert_eq!(parse_index_ddl(src), Ok(IndexDdl { create, def }), "{src}");
        }
        for bad in [
            "CREATE INDEX ON :L",
            "CREATE INDEX :L(x)",
            "CREATE INDEX ON :L(x) extra",
            "CREATE INDEX ON :L(x,)",
            "CREATE INDEX ON :L(x, y",
            "CREATE INDEX ON -:L(x)",
            "CREATE INDEX ON -[:T(x)-",
            "CREATE INDEX ON :L(x, y, x)",
        ] {
            assert!(
                matches!(parse_index_ddl(bad), Err(InstallError::Syntax(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn all_times_and_events_parse() {
        for time in ["BEFORE", "AFTER", "ONCOMMIT", "DETACHED"] {
            for event in ["CREATE", "DELETE", "SET", "REMOVE"] {
                let body = if time == "BEFORE" {
                    "SET NEW.checked = true"
                } else {
                    "CREATE (:Log)"
                };
                let src = format!(
                    "CREATE TRIGGER t {time} {event} ON 'L' FOR EACH NODE BEGIN {body} END"
                );
                let spec = create(&src);
                assert_eq!(spec.time.keyword(), time);
                assert_eq!(spec.event.keyword(), event);
            }
        }
    }

    #[test]
    fn rejects_updating_condition() {
        let err = parse_trigger_ddl(
            "CREATE TRIGGER bad AFTER CREATE ON 'L' FOR EACH NODE
             WHEN MATCH (n:L) WITH n WHERE n.x > 0
             BEGIN CREATE (:X) END",
        );
        assert!(err.is_ok());
        let err = parse_trigger_ddl(
            "CREATE TRIGGER bad AFTER CREATE ON 'L' FOR EACH NODE
             WHEN MATCH (n:L) WITH n, 1 AS one WHERE one = 1
             BEGIN CREATE (:X) END",
        );
        assert!(err.is_ok());
        // a condition that mutates is rejected — build via spec directly
        let mut spec =
            create("CREATE TRIGGER t AFTER CREATE ON 'L' FOR EACH NODE BEGIN CREATE (:X) END");
        spec.condition = Some(Arc::new(
            pg_cypher::parse_query("CREATE (:Evil)").unwrap().into(),
        ));
        assert!(matches!(
            validate_spec(&spec),
            Err(InstallError::UpdatingCondition(_))
        ));
    }

    #[test]
    fn rejects_target_label_mutation() {
        let err = parse_trigger_ddl(
            "CREATE TRIGGER bad AFTER CREATE ON 'L' FOR EACH NODE
             BEGIN MATCH (n:Other) SET n:L END",
        )
        .unwrap_err();
        assert!(matches!(err, InstallError::TargetLabelMutation { .. }));
        let err = parse_trigger_ddl(
            "CREATE TRIGGER bad AFTER CREATE ON 'L' FOR EACH NODE
             BEGIN MATCH (n:L) REMOVE n:L END",
        )
        .unwrap_err();
        assert!(matches!(err, InstallError::TargetLabelMutation { .. }));
        // other labels are fine
        assert!(parse_trigger_ddl(
            "CREATE TRIGGER ok AFTER CREATE ON 'L' FOR EACH NODE
             BEGIN MATCH (n:Other) SET n:Flagged END",
        )
        .is_ok());
    }

    #[test]
    fn rejects_strong_before_statements() {
        let err = parse_trigger_ddl(
            "CREATE TRIGGER bad BEFORE CREATE ON 'L' FOR EACH NODE
             BEGIN CREATE (:X) END",
        )
        .unwrap_err();
        assert!(matches!(
            err,
            InstallError::BeforeStatementTooStrong {
                clause: "CREATE",
                ..
            }
        ));
        // SET and ABORT are fine
        assert!(parse_trigger_ddl(
            "CREATE TRIGGER ok BEFORE CREATE ON 'L' FOR EACH NODE
             BEGIN SET NEW.audited = true END",
        )
        .is_ok());
        assert!(parse_trigger_ddl(
            "CREATE TRIGGER ok2 BEFORE SET ON 'L'.'x' FOR EACH NODE
             WHEN NEW.x < 0
             BEGIN ABORT 'x must be non-negative' END",
        )
        .is_ok());
    }

    #[test]
    fn rejects_bad_referencing() {
        let err = parse_trigger_ddl(
            "CREATE TRIGGER bad AFTER CREATE ON 'L'
             REFERENCING NEWNODES AS xs
             FOR EACH NODE
             BEGIN CREATE (:X) END",
        )
        .unwrap_err();
        assert!(matches!(err, InstallError::BadReferencing { .. }));
        let err = parse_trigger_ddl(
            "CREATE TRIGGER bad AFTER CREATE ON 'L'
             REFERENCING NEWRELS AS xs
             FOR ALL NODES
             BEGIN CREATE (:X) END",
        )
        .unwrap_err();
        assert!(matches!(err, InstallError::BadReferencing { .. }));
    }

    #[test]
    fn rejects_rel_label_events() {
        let err = parse_trigger_ddl(
            "CREATE TRIGGER bad AFTER SET ON 'Risk' FOR EACH RELATIONSHIP
             BEGIN CREATE (:X) END",
        )
        .unwrap_err();
        assert!(matches!(err, InstallError::Syntax(_)));
        // with a property it's fine
        assert!(parse_trigger_ddl(
            "CREATE TRIGGER ok AFTER SET ON 'Risk'.'level' FOR EACH RELATIONSHIP
             BEGIN CREATE (:X) END",
        )
        .is_ok());
    }

    #[test]
    fn syntax_errors_reported() {
        assert!(parse_trigger_ddl(
            "CREATE TRIGGER t WHENEVER CREATE ON 'x' FOR EACH NODE BEGIN END"
        )
        .is_err());
        assert!(
            parse_trigger_ddl("CREATE TRIGGER t AFTER CREATE ON 'x' FOR SOME NODE BEGIN END")
                .is_err()
        );
        assert!(parse_trigger_ddl(
            "CREATE TRIGGER t AFTER CREATE ON 'x' FOR EACH NODE BEGIN CREATE (:X)"
        )
        .is_err());
        assert!(parse_trigger_ddl("MATCH (n) RETURN n").is_err());
    }

    #[test]
    fn case_end_inside_body_balances() {
        let t = create(
            "CREATE TRIGGER c AFTER CREATE ON 'L' FOR EACH NODE
             BEGIN
               MATCH (n:Other)
               SET n.size = CASE WHEN n.x > 10 THEN 'big' ELSE 'small' END
             END",
        );
        assert_eq!(t.statement.query().clauses.len(), 2);
    }
}
