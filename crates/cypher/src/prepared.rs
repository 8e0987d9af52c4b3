//! Statement preparation: everything derivable from a statement's text
//! alone, computed once and reused by every execution.
//!
//! A [`Prepared`] is a pure function of its text — the statement class,
//! the parsed [`Query`], whether it updates, and the per-`MATCH` pushdown
//! extraction — so it never needs invalidation: no store, catalog or
//! statistics state flows into it. Everything data- or parameter-dependent
//! (anchor choice, access paths, estimates) stays per execution.
//!
//! The [`StatementCache`] maps texts to shared `Prepared`s. Sessions own
//! one each; the wire handler prepares a `RUN` text on its connection's
//! cache and hands the same `Arc` to whichever session executes it.

use crate::ast::visit::{self, Node};
use crate::ast::{Clause, Query};
use crate::error::Result;
use crate::parser::{parse_query, strip_explain};
use crate::pattern::{extract_pushdowns, pattern_vars, Pushdowns};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// What kind of statement a text is. Decided from the text's leading
/// keywords, in this order: trigger DDL, index DDL, `EXPLAIN`, query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementClass {
    /// A clause pipeline; [`Prepared::query`] is its AST.
    Query,
    /// `EXPLAIN <query>`; [`Prepared::query`] is the inner query.
    Explain,
    /// `CREATE TRIGGER` / `DROP TRIGGER`. The trigger layer owns that
    /// grammar and parses [`Prepared::text`] when the statement runs.
    TriggerDdl,
    /// `CREATE INDEX` / `DROP INDEX`; parsed like trigger DDL.
    IndexDdl,
}

fn has_prefix(src: &str, prefix: &str) -> bool {
    src.as_bytes()
        .get(..prefix.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes()))
}

impl StatementClass {
    /// Classify `src` without parsing it.
    pub fn of(src: &str) -> StatementClass {
        let t = src.trim_start();
        if has_prefix(t, "CREATE TRIGGER") || has_prefix(t, "DROP TRIGGER") {
            StatementClass::TriggerDdl
        } else if has_prefix(t, "CREATE INDEX") || has_prefix(t, "DROP INDEX") {
            StatementClass::IndexDdl
        } else if strip_explain(t).is_some() {
            StatementClass::Explain
        } else {
            StatementClass::Query
        }
    }
}

/// The text-invariant planning inputs of one `MATCH` clause.
#[derive(Debug)]
pub(crate) struct MatchPrep {
    /// [`extract_pushdowns`] of the clause's `WHERE`.
    pub(crate) pushed: Pushdowns,
    /// [`pattern_vars`] of its patterns (`OPTIONAL MATCH` null-binding).
    pub(crate) vars: Vec<String>,
}

/// A prepared statement (see the module docs).
pub struct Prepared {
    class: StatementClass,
    /// The source text; `None` when prepared from an AST.
    text: Option<Arc<str>>,
    /// Empty for the DDL classes.
    query: Query,
    is_updating: bool,
    /// One entry per `MATCH` clause of `query` (`FOREACH` bodies
    /// included), keyed by the clause's address. `query` is never mutated
    /// or moved out, and its clauses live in `Vec` heap buffers, so the
    /// addresses hold for as long as this value does — also when the
    /// value itself moves (into an `Arc`, say).
    matches: Vec<(usize, MatchPrep)>,
}

fn clause_key(clause: &Clause) -> usize {
    clause as *const Clause as usize
}

impl Prepared {
    /// Classify and, for queries and `EXPLAIN`, parse `text`. DDL texts
    /// are only classified: their grammars live in the trigger layer.
    pub fn new(text: &str) -> Result<Prepared> {
        let class = StatementClass::of(text);
        let query = match class {
            StatementClass::Query => parse_query(text)?,
            StatementClass::Explain => {
                parse_query(strip_explain(text).expect("classified as EXPLAIN"))?
            }
            StatementClass::TriggerDdl | StatementClass::IndexDdl => Query {
                clauses: Vec::new(),
            },
        };
        Ok(Prepared::build(class, Some(Arc::from(text)), query))
    }

    fn build(class: StatementClass, text: Option<Arc<str>>, mut query: Query) -> Prepared {
        // A cached statement lives long and a `Clause` is large: give
        // back the parser's growth slack before the addresses are taken.
        query.clauses.shrink_to_fit();
        let mut matches = Vec::new();
        visit::clauses(&query.clauses, &mut |node: Node| {
            if let Node::Clause(
                clause @ Clause::Match {
                    patterns,
                    where_clause,
                    ..
                },
            ) = node
            {
                let prep = MatchPrep {
                    pushed: extract_pushdowns(where_clause.as_ref()),
                    vars: pattern_vars(patterns),
                };
                matches.push((clause_key(clause), prep));
            }
            // only clauses (`FOREACH` bodies) hold further `MATCH`es
            matches!(node, Node::Clause(_))
        });
        matches.shrink_to_fit();
        let is_ddl = matches!(class, StatementClass::TriggerDdl | StatementClass::IndexDdl);
        let is_updating = is_ddl || query.is_updating();
        Prepared {
            class,
            text,
            query,
            is_updating,
            matches,
        }
    }

    pub fn class(&self) -> StatementClass {
        self.class
    }

    /// The text this statement was prepared from, if it was.
    pub fn text(&self) -> Option<&str> {
        self.text.as_deref()
    }

    /// The parsed query (of an `EXPLAIN`: the explained one).
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Whether running the statement can change the database: an updating
    /// clause anywhere in the query (for `EXPLAIN`: in the explained
    /// query, which is then planned but not run), or any DDL.
    pub fn is_updating(&self) -> bool {
        self.is_updating
    }

    /// Whether the statement may run against a published snapshot without
    /// the writer: a plain query with no updating clause. DDL changes the
    /// writer's catalogs and `EXPLAIN` reports on the writer's state.
    pub fn is_snapshot_read(&self) -> bool {
        self.class == StatementClass::Query && !self.is_updating
    }

    /// The preparation of `clause`, which must be one of this statement's
    /// own `MATCH` clauses.
    pub(crate) fn match_prep(&self, clause: &Clause) -> Option<&MatchPrep> {
        let key = clause_key(clause);
        self.matches
            .iter()
            .find_map(|(k, prep)| (*k == key).then_some(prep))
    }
}

/// Prepare an already-parsed query (trigger conditions and bodies, whose
/// fragments the DDL parser has parsed in its own modes).
impl From<Query> for Prepared {
    fn from(query: Query) -> Prepared {
        Prepared::build(StatementClass::Query, None, query)
    }
}

/// Equal when they would execute alike: same class, same AST. The text is
/// not compared (formatting does not reach the AST) and the rest is
/// derived from these two.
impl PartialEq for Prepared {
    fn eq(&self, other: &Prepared) -> bool {
        self.class == other.class && self.query == other.query
    }
}

impl fmt::Debug for Prepared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prepared")
            .field("class", &self.class)
            .field("text", &self.text)
            .field("query", &self.query)
            .finish_non_exhaustive()
    }
}

/// How many statements a [`StatementCache`] holds before it is cleared.
/// A cached §6 admission statement is ~2.7 KB; when every text is distinct
/// the cache is all dead weight, and 64 entries per connection keep that
/// inside the benchmark's memory bound on its smallest daemon.
pub const STATEMENT_CACHE_CAPACITY: usize = 64;

/// A bounded text → [`Prepared`] map. Keys are exact texts — no
/// normalisation, so texts differing only in whitespace are different
/// statements. When an insert finds the cache full it is cleared first:
/// a workload of all-distinct texts costs a lookup, an insert and one
/// `Arc<str>` per statement over parsing, and a workload with a hot set
/// below the capacity re-prepares that set once per clearing.
#[derive(Debug, Default)]
pub struct StatementCache {
    map: HashMap<Arc<str>, Arc<Prepared>>,
}

impl StatementCache {
    pub fn new() -> StatementCache {
        StatementCache::default()
    }

    /// The cached preparation of `text`, preparing and caching it on a
    /// miss. A text that fails to prepare is not cached.
    pub fn get_or_prepare(&mut self, text: &str) -> Result<Arc<Prepared>> {
        if let Some(hit) = self.map.get(text) {
            return Ok(Arc::clone(hit));
        }
        let prepared = Arc::new(Prepared::new(text)?);
        if self.map.len() >= STATEMENT_CACHE_CAPACITY {
            self.map.clear();
        }
        let key = Arc::clone(prepared.text.as_ref().expect("prepared from text"));
        self.map.insert(key, Arc::clone(&prepared));
        Ok(prepared)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_by_leading_keywords() {
        use StatementClass::*;
        for (src, want) in [
            ("MATCH (n) RETURN n", Query),
            ("  create trigger t AFTER CREATE ON 'L' …", TriggerDdl),
            ("DROP TRIGGER t", TriggerDdl),
            ("CREATE INDEX ON :L(k)", IndexDdl),
            ("drop index ON :L(k)", IndexDdl),
            ("EXPLAIN MATCH (n) RETURN n", Explain),
            ("explain\nMATCH (n) RETURN n", Explain),
            ("EXPLAINED", Query),
            ("CREATE (:Trigger)", Query),
            ("", Query),
        ] {
            assert_eq!(StatementClass::of(src), want, "{src:?}");
        }
    }

    #[test]
    fn match_preps_cover_every_match_clause_and_survive_a_move() {
        let p = Prepared::new(
            "MATCH (a:A) WHERE a.k = 1 OPTIONAL MATCH (a)-[r:R]->(b) \
             FOREACH (x IN [1] | MERGE (:C {v: x})) RETURN a",
        )
        .unwrap();
        let p = Arc::new(p);
        let clauses = &p.query().clauses;
        let first = p.match_prep(&clauses[0]).expect("first MATCH prepared");
        assert!(first.pushed.contains_key("a"));
        assert_eq!(first.vars, vec!["a"]);
        let second = p.match_prep(&clauses[1]).expect("OPTIONAL MATCH prepared");
        assert!(second.pushed.is_empty());
        assert_eq!(second.vars, vec!["a", "b", "r"]);
        assert!(p.match_prep(&clauses[2]).is_none(), "FOREACH is no MATCH");
        // A clause of another statement is never mistaken for one of ours.
        let other = Prepared::new("MATCH (a:A) WHERE a.k = 1 RETURN a").unwrap();
        assert!(p.match_prep(&other.query().clauses[0]).is_none());
    }

    #[test]
    fn equality_ignores_formatting() {
        let a = Prepared::new("MATCH (n)  RETURN n").unwrap();
        let b = Prepared::from(parse_query("MATCH (n) RETURN n").unwrap());
        assert_eq!(a, b);
        assert_ne!(a, Prepared::new("EXPLAIN MATCH (n) RETURN n").unwrap());
    }
}
