//! # pg-covid — the CoV2K COVID-19 running example (paper §6)
//!
//! * [`schema`] — the PG-Schema of Figures 4–5 (node/edge types, the
//!   `Patient → HospitalizedPatient → IcuPatient` hierarchy, the OPEN
//!   `Alert` type);
//! * [`triggers`] — the seven §6.2 PG-Triggers in executable form;
//! * [`generator`] — a seeded synthetic CoV2K dataset generator (the
//!   paper's real data derives from non-redistributable repositories; the
//!   generator preserves schema shape and configurable cardinalities);
//! * [`scenario`] — the reactive scenario driver: mutation discoveries,
//!   lineage events, and ICU admission waves with relocation.

pub mod generator;
pub mod scenario;
pub mod schema;
pub mod triggers;
pub mod wire;

pub use generator::{generate, CovidDataset, GeneratorConfig};
pub use scenario::{Scenario, ScenarioConfig, ScenarioReport};
pub use schema::{covid_graph_type, COVID_SCHEMA_DDL};
pub use triggers::{install_paper_indexes, install_paper_triggers, PAPER_INDEXES, PAPER_TRIGGERS};
