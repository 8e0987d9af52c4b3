//! # pg-graph — in-memory property graph store
//!
//! The storage substrate for the PG-Triggers reproduction. It provides:
//!
//! * a directed **property graph** (multi-labeled nodes, typed relationships,
//!   `⟨property, value⟩` pairs on both), following the data model of
//!   *PG-Triggers: Triggers for Property Graphs* (SIGMOD-Companion '24) §2;
//! * **transactions** with statement marks, commit and rollback, built on an
//!   undo-capable operation log;
//! * **change deltas** mirroring the transition metadata that Neo4j APOC
//!   (paper Table 2/3) and Memgraph (paper Table 4) expose to triggers:
//!   created/deleted nodes and relationships, assigned/removed labels, and
//!   assigned/removed properties with old and new values;
//! * read **views**: the live graph, and a [`PreStateView`] that exposes the
//!   state *before* a statement ran (needed for `BEFORE` trigger semantics);
//! * **property indexes** ([`composite`]): `(label, [k1, k2, …])` and
//!   `(type, [k1, k2, …])` → lexicographic key vectors → item sets — a
//!   single-key index is the width-1 case — kept consistent through every
//!   mutation *and undo* path, giving the query layer index-backed access
//!   paths for equality, ordered range (`<`/`<=`/`>`/`>=`) and
//!   `STARTS WITH` prefix predicates, their conjunctions (an equality
//!   prefix and one trailing bound), and `ORDER BY` walks, all through one
//!   probe entry point ([`GraphView::probe`]);
//! * **snapshot-isolated reads** ([`snapshot`]): the single writer publishes
//!   commit epochs, and any number of reader threads pin cheap, immutable
//!   [`Snapshot`]s — full [`GraphView`]s over persistent (structurally
//!   shared) maps — that never block the writer and never observe
//!   uncommitted state.
//!
//! The crate is deliberately free of query-language concerns; `pg-cypher`
//! layers a Cypher subset on top of the [`GraphView`] trait and the mutation
//! API of [`Graph`].

mod adjacency;
pub mod codec;
pub mod composite;
pub mod delta;
pub mod error;
pub mod idmap;
pub mod ids;
pub mod op;
pub mod pmap;
pub mod prop_index;
pub mod props;
pub mod record;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod value;
pub mod view;

pub use codec::CodecError;
pub use composite::{CompositeTrailing, IndexProbe, IndexStats};
pub use delta::{Delta, LabelEvent, PropAssign, PropRemove};
pub use error::{GraphError, Result};
pub use ids::{Hop, IdHashMap, IdHashSet, ItemRef, NodeId, RelId};
pub use op::Op;
pub use props::PropertyMap;
pub use record::{NodeRecord, RelRecord};
pub use snapshot::{GraphHandle, Snapshot};
pub use stats::Histogram;
pub use store::{CommitSink, Graph, IndexProbes, StatementMark, WritePolicy};
pub use value::{Direction, OrderKey, Value, MAX_NESTING};
pub use view::{GraphView, IndexDef, IndexOn, IndexScope, PreStateView, ProbeMode, Probed};
