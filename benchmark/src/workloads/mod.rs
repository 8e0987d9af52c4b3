//! The five workloads. Names are fixed; later issues cite them.
//!
//! A run is a sequence of identical **rounds**. A round sets its state up
//! from nothing, runs a fixed list of operations (the same list every
//! round, a pure function of `--seed`), checks the outputs, and tears
//! down. Rounds repeat until `--seconds` of measured time have passed and
//! every reported time or rate is its best round's (see `run::best_of`
//! for why not the median). So both sides of a comparison do the same
//! work on the same final graph whatever their speed, and set-up time is
//! sampled once per round.

pub mod engine_analytic_join;
pub mod engine_cascade;
pub mod wire_covid_mixed;
pub mod wire_point_read;
pub mod wire_write_burst;

use crate::layers::LayerReport;
use crate::model::{Kind, Round};
use crate::span::{Span, Tracer};
use std::time::Instant;

pub trait Workload {
    /// The statement kind this workload exists to stress; the run's
    /// `latency_p50_us` / `latency_p95_us` are taken over it.
    fn primary(&self) -> Kind;

    /// Fixed operation counts of one round, for the `env` stanza.
    fn op_counts(&self) -> Vec<(&'static str, u64)>;

    /// Hash of the generated statement stream (`model::stream_hash`): two
    /// results with the same hash ran the same inputs.
    fn stream_hash(&self) -> u64;

    /// One full round. With `origin` set the round is traced: every client
    /// call is wrapped in a span on that time axis.
    fn round(&mut self, origin: Option<Instant>) -> Result<(Round, Vec<Span>), String>;

    /// The outside-in layer probes of a traced run: replay the generated
    /// statements against in-process twins, timing each layer's public
    /// functions. `wire_us` is the traced rounds' median client latency of
    /// the primary kind (0 for in-process workloads).
    fn layers(&mut self, tracer: &mut Tracer, wire_us: f64) -> Result<LayerReport, String>;
}

/// `(name, why)` of every workload, in report order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "wire_covid_mixed",
        "the paper's section-6 scenario over TCP: a trigger-firing durable writer beside a reader, then SIGKILL and restart; every layer does some work",
    ),
    (
        "wire_point_read",
        "read-only parameterised point lookups over TCP: socket, frame codec, parse and plan dominate; triggers, WAL and commit do nothing",
    ),
    (
        "wire_write_burst",
        "write-only over TCP on an indexed label no trigger watches: writer lock, commit, publication, index upkeep and WAL dominate; cascades do nothing",
    ),
    (
        "engine_cascade",
        "in process, no socket, no WAL: the section-4.2 trigger grid plus admission waves under the schema guard; dispatch and conditions dominate",
    ),
    (
        "engine_analytic_join",
        "in process on a published snapshot of the Zipf follower graph: match execution and adjacency walks dominate; parse, plan, triggers and wire are bypassed",
    ),
];

pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "wire_covid_mixed" => Box::new(wire_covid_mixed::CovidMixed::new(seed)),
        "wire_point_read" => Box::new(wire_point_read::PointRead::new(seed)),
        "wire_write_burst" => Box::new(wire_write_burst::WriteBurst::new(seed)),
        "engine_cascade" => Box::new(engine_cascade::Cascade::new(seed)),
        "engine_analytic_join" => Box::new(engine_analytic_join::AnalyticJoin::new(seed)),
        _ => return None,
    })
}

/// Collect the spans of a round's connections onto one list.
pub fn merge_spans(tracers: impl IntoIterator<Item = Option<Tracer>>) -> Vec<Span> {
    tracers
        .into_iter()
        .flatten()
        .flat_map(|t| t.spans)
        .collect()
}
