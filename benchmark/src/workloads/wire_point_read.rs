//! `wire_point_read` — read-only over TCP. The daemon starts on a data
//! directory prepared in process and checkpointed in set-up (indexed
//! `Patient` nodes, each `TreatedAt` one `Hospital`; no writer ever runs).
//! Two connections each send a fixed count of **parameterised**
//! statements drawn Zipf-skewed from three fixed texts — indexed point
//! lookup, one-hop `TreatedAt` neighbour, indexed count — over
//! Zipf-skewed keys.
//!
//! Why: match work is near zero, so socket, frame codec, lex/parse and
//! plan dominate. A plan cache or prepared statements must show here;
//! trigger, WAL and commit work must not (a commit queue predicts no
//! change on this workload).

use super::{merge_spans, Workload};
use crate::daemon::{peak_rss_mb, Daemon, TempDir};
use crate::layers::{self, LayerReport, ProbePlan, TwinDb};
use crate::model::{stream_hash, Kind, Op, Round, Stmt};
use crate::span::{Span, Tracer};
use crate::wire::{drive, run_ops, Conn};
use pg_bench::workloads::ZipfSampler;
use pg_graph::{PropertyMap, Value};
use pg_triggers::{EngineConfig, Session, WalOptions};
use std::time::Instant;

/// Patients in the prepared directory.
pub const PATIENTS: usize = 5_000;
const HOSPITALS: usize = 100;
/// Every name is shared by this many patients (the indexed count's answer).
const PATIENTS_PER_NAME: usize = 5;
pub const CONNECTIONS: usize = 2;
/// Statements per connection per round.
pub const READS_PER_CONNECTION: usize = 8_000;
const WARM_UP: usize = 200;

const POINT_LOOKUP: &str = "MATCH (p:Patient {ssn: $ssn}) RETURN p.severity AS severity";
const NEIGHBOUR: &str =
    "MATCH (p:Patient {ssn: $ssn})-[:TreatedAt]->(h:Hospital) RETURN h.name AS hospital";
const INDEXED_COUNT: &str = "MATCH (p:Patient {name: $name}) RETURN count(*) AS n";

fn ssn(i: usize) -> String {
    format!("S{i:07}")
}

fn name(i: usize) -> String {
    format!("N{:06}", i % (PATIENTS / PATIENTS_PER_NAME))
}

/// The severity the generator assigns patient `i`.
fn severity(i: usize) -> i64 {
    ((i * 7 + 3) % 10) as i64
}

fn hospital(i: usize) -> String {
    format!("H{:03}", i % HOSPITALS)
}

/// Bulk-load the fixed population (trigger-silent, outside any
/// transaction) and index what the three statements probe.
fn load(session: &mut Session) {
    let g = session.graph_mut();
    let props = |pairs: Vec<(&str, Value)>| -> PropertyMap {
        pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    };
    let hospitals: Vec<_> = (0..HOSPITALS)
        .map(|h| {
            g.create_node(["Hospital"], props(vec![("name", Value::str(hospital(h)))]))
                .expect("bulk load")
        })
        .collect();
    for i in 0..PATIENTS {
        let p = g
            .create_node(
                ["Patient"],
                props(vec![
                    ("ssn", Value::str(ssn(i))),
                    ("name", Value::str(name(i))),
                    ("severity", Value::Int(severity(i))),
                ]),
            )
            .expect("bulk load");
        g.create_rel(p, hospitals[i % HOSPITALS], "TreatedAt", PropertyMap::new())
            .expect("bulk load");
    }
    g.create_index("Patient", "ssn");
    g.create_index("Patient", "name");
    g.create_index("Hospital", "name");
    g.rebuild_stats();
}

/// One connection's statements. Text and key are both Zipf-skewed; the
/// key ranks are scattered over the population by a seed-dependent odd
/// multiplier, so each seed has its own hot set.
fn generate(seed: u64, conn: usize, n: usize) -> Vec<Op> {
    let stream_seed = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(conn as u64);
    let mut texts = ZipfSampler::new(3, 1.0, stream_seed);
    let mut keys = ZipfSampler::new(PATIENTS, 1.0, stream_seed ^ 0xa5a5);
    let scatter = (seed as usize).wrapping_mul(2).wrapping_add(7919) | 1;
    (0..n)
        .map(|k| {
            let i = keys.sample().wrapping_mul(scatter) % PATIENTS;
            let id = (conn * n + k) as u64;
            Op::One(match texts.sample() {
                0 => Stmt::new(id, Kind::Read, POINT_LOOKUP)
                    .param("ssn", Value::str(ssn(i)))
                    .expect(Value::Int(severity(i))),
                1 => Stmt::new(id, Kind::Read, NEIGHBOUR)
                    .param("ssn", Value::str(ssn(i)))
                    .expect(Value::str(hospital(i))),
                _ => Stmt::new(id, Kind::Read, INDEXED_COUNT)
                    .param("name", Value::str(name(i)))
                    .expect(Value::Int(PATIENTS_PER_NAME as i64)),
            })
        })
        .collect()
}

pub struct PointRead {
    streams: Vec<Vec<Op>>,
}

impl PointRead {
    pub fn new(seed: u64) -> PointRead {
        PointRead {
            streams: (0..CONNECTIONS)
                .map(|c| generate(seed, c, READS_PER_CONNECTION))
                .collect(),
        }
    }

    pub fn statements(&self) -> impl Iterator<Item = &Stmt> {
        self.streams.iter().flatten().flat_map(Op::stmts)
    }
}

impl Workload for PointRead {
    fn primary(&self) -> Kind {
        Kind::Read
    }

    fn stream_hash(&self) -> u64 {
        stream_hash(self.statements())
    }

    fn op_counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("patients", PATIENTS as u64),
            ("connections", CONNECTIONS as u64),
            ("reads_per_connection", READS_PER_CONNECTION as u64),
        ]
    }

    fn round(&mut self, origin: Option<Instant>) -> Result<(Round, Vec<Span>), String> {
        // ---- set-up: prepare + checkpoint in process, then the daemon
        // recovers the directory from that snapshot ---------------------------
        let setup = Instant::now();
        let tmp = TempDir::new("point")?;
        let store = tmp.path().join("store");
        {
            let wal = WalOptions::from_env().map_err(|e| e.to_string())?;
            let (mut session, _) = Session::open_durable(&store, EngineConfig::default(), wal)
                .map_err(|e| format!("prepare {}: {e}", store.display()))?;
            load(&mut session);
            session
                .checkpoint()
                .map_err(|e| format!("checkpoint: {e}"))?;
        }
        let daemon = Daemon::spawn(&store, false)?;
        let mut conns = Vec::new();
        for _ in 0..CONNECTIONS {
            conns.push(Conn::new(daemon.connect()?, origin.map(Tracer::new)));
        }
        conns[0].ask("RETURN 1 AS ready")?;
        let setup_s = setup.elapsed().as_secs_f64();

        for conn in &mut conns {
            for i in 0..WARM_UP {
                conn.ask(&format!(
                    "MATCH (p:Patient {{ssn: '{}'}}) RETURN p.severity AS severity",
                    ssn(i)
                ))?;
            }
        }

        // ---- measured phase ----------------------------------------------------
        let streams = &self.streams;
        let (conns, measured_s) = drive(conns, |i, conn| run_ops(conn, &streams[i]))?;

        let mut round = Round {
            traced: origin.is_some(),
            setup_s,
            measured_s,
            ..Round::default()
        };
        if let Some(mb) = peak_rss_mb(daemon.pid()) {
            round.extra.insert("peak_rss_mb", mb);
        }
        daemon.kill();
        let mut tracers = Vec::new();
        for conn in conns {
            round.samples.merge(conn.samples);
            tracers.push(conn.tracer);
        }
        Ok((round, merge_spans(tracers)))
    }

    fn layers(&mut self, tracer: &mut Tracer, wire_us: f64) -> Result<LayerReport, String> {
        let plan = ProbePlan {
            db: TwinDb {
                prepare: Box::new(load),
                triggers: Vec::new(),
            },
            durable: true,
            wire: true,
            primary: Kind::Read,
            stream: self.statements().cloned().collect(),
            sample_every: 8,
            wire_us,
        };
        layers::probe(&plan, tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_function_of_the_seed_only() {
        let h = |seed| stream_hash(PointRead::new(seed).statements());
        assert_eq!(h(5), h(5));
        assert_ne!(h(5), h(6));
    }

    #[test]
    fn texts_and_keys_are_skewed() {
        let w = PointRead::new(9);
        let stmts: Vec<&Stmt> = w.statements().collect();
        let share = |text: &str| {
            stmts.iter().filter(|s| s.text == text).count() as f64 / stmts.len() as f64
        };
        assert!(share(POINT_LOOKUP) > share(NEIGHBOUR) && share(NEIGHBOUR) > share(INDEXED_COUNT));
        assert!(share(INDEXED_COUNT) > 0.1);
        let mut keys: Vec<String> = stmts.iter().map(|s| format!("{:?}", s.params)).collect();
        let total = keys.len();
        keys.sort();
        keys.dedup();
        assert!(
            keys.len() < total / 2,
            "hot keys repeat: {} distinct of {total}",
            keys.len()
        );
    }

    #[test]
    fn loaded_population_answers_as_the_generator_expects() {
        let mut s = Session::new();
        load(&mut s);
        let w = PointRead::new(3);
        for stmt in w.statements().take(50) {
            let out = s.run_with_params(&stmt.text, &stmt.params_map()).unwrap();
            assert_eq!(out.single(), stmt.expect_single.as_ref(), "{}", stmt.text);
        }
    }
}
