//! Error types for the trigger engine.

use pg_cypher::CypherError;
use pg_graph::{GraphError, IndexDef};
use std::fmt;

/// Errors installing a trigger (`CREATE TRIGGER` time checks, §4.2).
#[derive(Debug, Clone, PartialEq)]
pub enum InstallError {
    /// DDL or embedded Cypher failed to parse.
    Parse(CypherError),
    /// Malformed DDL outside the embedded Cypher fragments.
    Syntax(String),
    /// A trigger with this name already exists.
    DuplicateName(String),
    /// The `WHEN` condition contains updating clauses.
    UpdatingCondition(String),
    /// The statement sets or removes the trigger's own target label
    /// (forbidden by §4.2, "Choice of LABELS").
    TargetLabelMutation { trigger: String, label: String },
    /// A `BEFORE` trigger statement contains clauses other than property
    /// conditioning (`SET`) or `ABORT` (§4.2: BEFORE statements "should not
    /// produce arbitrary changes, but just condition NEW states").
    BeforeStatementTooStrong {
        trigger: String,
        clause: &'static str,
    },
    /// `REFERENCING` names a transition variable incompatible with the
    /// trigger's granularity or item kind.
    BadReferencing {
        trigger: String,
        var: String,
        reason: &'static str,
    },
    /// `CREATE INDEX` on a definition that already exists.
    DuplicateIndex(IndexDef),
    /// `DROP INDEX` on a definition that is not indexed.
    UnknownIndex(IndexDef),
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Parse(e) => write!(f, "trigger DDL parse error: {e}"),
            InstallError::Syntax(msg) => write!(f, "trigger DDL syntax error: {msg}"),
            InstallError::DuplicateName(n) => write!(f, "trigger '{n}' already exists"),
            InstallError::UpdatingCondition(n) => {
                write!(f, "trigger '{n}': WHEN condition must be read-only")
            }
            InstallError::TargetLabelMutation { trigger, label } => write!(
                f,
                "trigger '{trigger}': statement may not set or remove its target label '{label}'"
            ),
            InstallError::BeforeStatementTooStrong { trigger, clause } => write!(
                f,
                "trigger '{trigger}': BEFORE statements may only condition NEW states (found {clause})"
            ),
            InstallError::BadReferencing { trigger, var, reason } => {
                write!(f, "trigger '{trigger}': REFERENCING {var}: {reason}")
            }
            InstallError::DuplicateIndex(def) => write!(f, "index on {def} already exists"),
            InstallError::UnknownIndex(def) => write!(f, "no index on {def}"),
        }
    }
}

impl std::error::Error for InstallError {}

/// Errors raised while processing triggers at run time.
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerError {
    /// DDL routed through [`crate::Session::execute`] failed to install.
    Install(InstallError),
    /// The user statement or a trigger statement failed.
    Cypher(CypherError),
    /// Store-level failure.
    Store(GraphError),
    /// Cascading exceeded the configured depth (non-terminating rule set,
    /// §6.2.3 discussion / Baralis–Ceri–Widom).
    RecursionLimit { depth: usize, trigger: String },
    /// The ONCOMMIT fixpoint did not converge within the configured rounds.
    CommitFixpointDiverged { rounds: usize },
    /// Transaction-control misuse at the session level.
    Session(&'static str),
    /// Unknown trigger name in DROP/ENABLE/DISABLE.
    UnknownTrigger(String),
    /// The transaction's net effect violates the session's PG-Schema guard.
    Schema(crate::schema_guard::SchemaViolation),
}

impl fmt::Display for TriggerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TriggerError::Install(e) => write!(f, "{e}"),
            TriggerError::Cypher(e) => write!(f, "{e}"),
            TriggerError::Store(e) => write!(f, "{e}"),
            TriggerError::RecursionLimit { depth, trigger } => write!(
                f,
                "trigger cascade exceeded depth {depth} (last trigger: '{trigger}')"
            ),
            TriggerError::CommitFixpointDiverged { rounds } => {
                write!(
                    f,
                    "ONCOMMIT processing did not converge after {rounds} rounds"
                )
            }
            TriggerError::Session(msg) => write!(f, "session error: {msg}"),
            TriggerError::UnknownTrigger(n) => write!(f, "unknown trigger '{n}'"),
            TriggerError::Schema(v) => write!(f, "{v}"),
        }
    }
}

impl std::error::Error for TriggerError {}

impl From<CypherError> for TriggerError {
    fn from(e: CypherError) -> Self {
        match e {
            CypherError::Store(s) => TriggerError::Store(s),
            other => TriggerError::Cypher(other),
        }
    }
}

impl From<GraphError> for TriggerError {
    fn from(e: GraphError) -> Self {
        TriggerError::Store(e)
    }
}
