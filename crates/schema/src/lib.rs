//! # pg-schema — a PG-Schema / PG-Keys subset
//!
//! Implements the schema substrate the paper's running example uses (§6.1,
//! Figures 4–5): typed nodes and edges with property types, type hierarchies
//! with inheritance (`HospitalizedPatient <: Patient`), `OPEN` types (the
//! paper's `Alert` nodes allow arbitrary extra properties), key constraints
//! (PG-Keys), and `STRICT` graph types where every node must conform to
//! exactly one declared type.
//!
//! The DDL follows the PG-Schema proposal's surface:
//!
//! ```text
//! CREATE GRAPH TYPE CovidGraphType STRICT {
//!   (PatientType: Patient {ssn STRING KEY, name STRING, sex STRING,
//!                          OPTIONAL vaccinated INT32}),
//!   (HospitalizedPatientType: PatientType & HospitalizedPatient
//!                             {id INT32, prognosis STRING}),
//!   (AlertType: Alert OPEN {time DATETIME, desc STRING}),
//!   (:HospitalizedPatientType)-[TreatedAtType: TreatedAt]->(:HospitalType)
//! }
//! ```

pub mod ddl;
pub mod types;
pub mod validate;

pub use ddl::parse_graph_type;
pub use types::{
    CompiledGraphType, EdgeTypeDef, GraphType, NodeTypeDef, PropDef, PropType, SchemaError,
};
pub use validate::{validate_graph, Violation};
