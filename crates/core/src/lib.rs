//! # pg-triggers — PG-Triggers for property graphs
//!
//! The reference implementation of **PG-Triggers: Triggers for Property
//! Graphs** (Ceri et al., SIGMOD-Companion 2024): SQL3-style ECA triggers
//! adapted to the property-graph data model.
//!
//! * **Syntax** — [`ddl`] parses the paper's Figure 1 grammar
//!   (`CREATE TRIGGER <name> <time> <event> ON <label>[.<property>] …`).
//! * **Semantics** — [`session::Session`] implements §4.2: label-based
//!   targeting, `FOR EACH`/`FOR ALL` granularity with `OLD`/`NEW`/
//!   `OLDNODES`/`NEWNODES`/`OLDRELS`/`NEWRELS` transition variables,
//!   `BEFORE`/`AFTER`/`ONCOMMIT`/`DETACHED` action times, creation-time
//!   activation order, SQL3-style cascading with a bounded context stack,
//!   and the target-label protection rule.
//! * **Termination analysis** — [`termination`] builds the Baralis–Ceri–
//!   Widom triggering graph and reports cycles.
//! * **Translation** — [`lowering`] is the one lowering behind §5's APOC
//!   and Memgraph translations (`pg_apoc`, `pg_memgraph`).
//!
//! ```
//! use pg_triggers::Session;
//!
//! let mut session = Session::new();
//! session.install(
//!     "CREATE TRIGGER NewCriticalMutation
//!      AFTER CREATE ON 'Mutation' FOR EACH NODE
//!      WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect)
//!      BEGIN
//!        CREATE (:Alert{time: DATETIME(), desc: 'New critical mutation',
//!                       mutation: NEW.name})
//!      END",
//! ).unwrap();
//!
//! session.run("CREATE (:CriticalEffect {description: 'Enhanced infectivity'})").unwrap();
//! session.run(
//!     "MATCH (e:CriticalEffect)
//!      CREATE (:Mutation {name: 'Spike:D614G'})-[:Risk]->(e)",
//! ).unwrap();
//!
//! let alerts = session.run("MATCH (a:Alert) RETURN count(*) AS n").unwrap();
//! assert_eq!(alerts.single().and_then(|v| v.as_i64()), Some(1));
//! ```

pub mod binding;
pub mod catalog;
pub mod ddl;
pub mod error;
pub mod lowering;
pub mod overlay;
pub mod read_session;
pub mod schema_guard;
pub mod session;
pub mod spec;
pub mod termination;

pub use catalog::{InstalledTrigger, OrderPolicy, TriggerCatalog};
// The durability layer, re-exported so downstream crates can open durable
// sessions without a direct `pg-wal` dependency.
pub use ddl::{
    is_index_ddl, is_trigger_ddl, parse_index_ddl, parse_trigger_ddl, DdlStatement, IndexDdl,
};
pub use error::{InstallError, TriggerError};
pub use pg_graph::{IndexDef, IndexOn};
pub use pg_wal as wal;
pub use pg_wal::{
    RecoveryError, RecoveryOptions, RecoveryReport, SyncPolicy, WalError, WalOptions,
};
pub use read_session::ReadSession;
pub use schema_guard::{SchemaGuard, SchemaViolation};
pub use session::{EngineConfig, EngineStats, ExecResult, Session};
pub use spec::{
    ActionTime, EventKind, EventType, Granularity, ItemKind, TransitionVar, TriggerSpec,
};
pub use termination::{analyze, TerminationReport};
