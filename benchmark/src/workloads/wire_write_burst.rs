//! `wire_write_burst` — write-only over TCP: two writer connections,
//! auto-commit plus explicit 8-statement `BEGIN … COMMIT` transactions,
//! over a label (`Reading`) with a single-key and a composite index:
//! 70% parameterised `CREATE`, 20% indexed `MATCH … SET`, 10% inside
//! transactions. The §6 triggers are armed (`--covid` on a pre-seeded
//! directory) but no trigger event intersects `Reading`, so dispatch
//! takes only its signature fast path.
//!
//! Why: writer-mutex wait, store commit and publication, index
//! maintenance and WAL append/sync do most of the work and cascades do
//! none. A commit queue or group commit shows here and must leave
//! `wire_point_read` flat. It is also the write side of the same `graph`
//! indexes `wire_point_read` reads, so an index change that speeds probes
//! but slows maintenance is caught.

use super::{merge_spans, Workload};
use crate::daemon::{peak_rss_mb, store_bytes, Daemon, TempDir};
use crate::layers::{self, LayerReport, ProbePlan, TwinDb};
use crate::model::{stream_hash, Check, Kind, Op, Round, Stmt};
use crate::span::{Span, Tracer};
use crate::wire::{drive, run_ops, Conn};
use pg_graph::{PropertyMap, Value};
use pg_triggers::{EngineConfig, Session, WalOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

pub const CONNECTIONS: usize = 2;
/// Statements per connection per round: whole 80-statement blocks of
/// 56 creates, 16 updates and one 8-statement transaction.
pub const WRITES_PER_CONNECTION: usize = 2_000;
const BLOCK: usize = 80;
const CREATES_PER_BLOCK: usize = 56;
const TX_LEN: usize = 8;
/// `Reading` nodes present before the round; the updates' targets.
pub const PRELOADED: usize = 4_000;
const SITES: usize = 50;
const WARM_UP: usize = 40;

const CREATE: &str = "CREATE (:Reading {sensor: $sensor, site: $site, slot: $slot, value: $value})";
const SET_BY_SENSOR: &str = "MATCH (r:Reading {sensor: $sensor}) SET r.value = $value";
const SET_BY_SITE_SLOT: &str = "MATCH (r:Reading {site: $site, slot: $slot}) SET r.value = $value";
const READING_COUNT: &str = "MATCH (r:Reading) RETURN count(*) AS n";

fn site(i: usize) -> String {
    format!("site-{:02}", i % SITES)
}

/// Pre-seed what the daemon's `--covid` start expects to find (so it only
/// re-arms the triggers), index `Reading`, and bulk-load the update
/// targets. `(site, slot)` identifies a preloaded reading uniquely.
fn load(session: &mut Session) {
    for stmt in pg_covid::wire::setup_statements() {
        if !pg_triggers::is_trigger_ddl(&stmt) {
            session.execute(&stmt).expect("covid seed statement");
        }
    }
    let g = session.graph_mut();
    for i in 0..PRELOADED {
        let props: PropertyMap = [
            ("sensor".to_string(), Value::str(format!("pre-{i:06}"))),
            ("site".to_string(), Value::str(site(i))),
            ("slot".to_string(), Value::Int((i / SITES) as i64)),
            ("value".to_string(), Value::Int(0)),
        ]
        .into_iter()
        .collect();
        g.create_node(["Reading"], props).expect("bulk load");
    }
    g.create_index("Reading", "sensor");
    g.create_composite_index("Reading", &["site".to_string(), "slot".to_string()]);
    g.rebuild_stats();
}

fn create(id: u64, conn: usize, serial: usize, rng: &mut StdRng) -> Stmt {
    Stmt::new(id, Kind::Write, CREATE)
        .param("sensor", Value::str(format!("c{conn}-{serial:06}")))
        .param("site", Value::str(site(rng.gen_range(0..SITES))))
        // New readings take slots above every preloaded one.
        .param("slot", Value::Int((PRELOADED / SITES + serial) as i64))
        .param("value", Value::Int(rng.gen_range(0..1000i64)))
        .fired(0)
}

/// One connection's operations. Each connection updates only its own half
/// of the preloaded readings, so the two never touch the same node.
fn generate(seed: u64, conn: usize, n: usize) -> Vec<Op> {
    assert_eq!(n % BLOCK, 0, "whole blocks only");
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(conn as u64));
    let mut ops = Vec::new();
    let (mut id, mut serial) = ((conn * n) as u64, 0usize);
    for _ in 0..n / BLOCK {
        // 72 auto-commit slots; the transaction goes before a seed-chosen one.
        let singles = BLOCK - TX_LEN;
        let tx_at = rng.gen_range(0..singles);
        let mut creates_left = CREATES_PER_BLOCK;
        for slot in 0..singles {
            if slot == tx_at {
                let stmts = (0..TX_LEN)
                    .map(|_| {
                        let s = create(id, conn, serial, &mut rng);
                        (id, serial) = (id + 1, serial + 1);
                        s
                    })
                    .collect();
                ops.push(Op::Tx(stmts));
            }
            // Spread the 56 creates and 16 updates evenly over the slots.
            let slots_left = singles - slot;
            let is_create = rng.gen_range(0..slots_left) < creates_left;
            let stmt = if is_create {
                creates_left -= 1;
                serial += 1;
                create(id, conn, serial - 1, &mut rng)
            } else {
                let target = rng.gen_range(0..PRELOADED / CONNECTIONS) * CONNECTIONS + conn;
                let value = Value::Int(rng.gen_range(1..1000i64));
                let update = if rng.gen_bool(0.5) {
                    Stmt::new(id, Kind::Write, SET_BY_SENSOR)
                        .param("sensor", Value::str(format!("pre-{target:06}")))
                } else {
                    Stmt::new(id, Kind::Write, SET_BY_SITE_SLOT)
                        .param("site", Value::str(site(target)))
                        .param("slot", Value::Int((target / SITES) as i64))
                };
                update.param("value", value).fired(0)
            };
            id += 1;
            ops.push(Op::One(stmt));
        }
    }
    ops
}

pub struct WriteBurst {
    streams: Vec<Vec<Op>>,
}

impl WriteBurst {
    pub fn new(seed: u64) -> WriteBurst {
        WriteBurst {
            streams: (0..CONNECTIONS)
                .map(|c| generate(seed, c, WRITES_PER_CONNECTION))
                .collect(),
        }
    }

    pub fn statements(&self) -> impl Iterator<Item = &Stmt> {
        self.streams.iter().flatten().flat_map(Op::stmts)
    }

    fn creates(&self) -> usize {
        self.statements().filter(|s| s.text == CREATE).count()
    }
}

impl Workload for WriteBurst {
    fn primary(&self) -> Kind {
        Kind::Write
    }

    fn stream_hash(&self) -> u64 {
        stream_hash(self.statements())
    }

    fn op_counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("preloaded_readings", PRELOADED as u64),
            ("connections", CONNECTIONS as u64),
            ("writes_per_connection", WRITES_PER_CONNECTION as u64),
        ]
    }

    fn round(&mut self, origin: Option<Instant>) -> Result<(Round, Vec<Span>), String> {
        // ---- set-up: pre-seed + checkpoint in process; the daemon recovers
        // the directory and re-arms the §6 triggers --------------------------
        let setup = Instant::now();
        let tmp = TempDir::new("burst")?;
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
        let seeded_bytes = store_bytes(&store);
        let daemon = Daemon::spawn(&store, true)?;
        let mut conns = Vec::new();
        for _ in 0..CONNECTIONS {
            conns.push(Conn::new(daemon.connect()?, origin.map(Tracer::new)));
        }
        conns[0].ask("RETURN 1 AS ready")?;
        let setup_s = setup.elapsed().as_secs_f64();

        for (c, conn) in conns.iter_mut().enumerate() {
            for i in 0..WARM_UP {
                conn.ask(&format!("CREATE (:Warm {{c: {c}, i: {i}}})"))?;
            }
        }
        let warm_bytes = store_bytes(&store) - seeded_bytes;

        // ---- measured phase ----------------------------------------------------
        let streams = &self.streams;
        let (mut conns, measured_s) = drive(conns, |i, conn| run_ops(conn, &streams[i]))?;

        let acked: u64 = conns.iter().map(|c| c.acked_writes).sum();
        let fired: i64 = conns.iter().map(|c| c.fired).sum();
        let readings = conns[0].ask_i64(READING_COUNT)?;
        let mut round = Round {
            traced: origin.is_some(),
            setup_s,
            measured_s,
            checks: vec![
                Check::eq(
                    "every write acknowledged",
                    Kind::Write,
                    acked,
                    self.statements().count() as u64,
                ),
                Check::eq("no trigger fired", Kind::Write, fired, 0),
                Check::eq(
                    "readings == preloaded + acknowledged creates",
                    Kind::Write,
                    readings,
                    (PRELOADED + self.creates()) as i64,
                ),
            ],
            ..Round::default()
        };
        if let Some(mb) = peak_rss_mb(daemon.pid()) {
            round.extra.insert("peak_rss_mb", mb);
        }
        daemon.kill();
        // Bytes the measured writes added: the seeded snapshot and the
        // warm-up frames are not theirs.
        let written = store_bytes(&store) - seeded_bytes - warm_bytes;
        round
            .extra
            .insert("wal_bytes_per_write", written as f64 / acked.max(1) as f64);
        let mut tracers = Vec::new();
        for conn in conns {
            round.samples.merge(conn.samples);
            tracers.push(conn.tracer);
        }
        Ok((round, merge_spans(tracers)))
    }

    fn layers(&mut self, tracer: &mut Tracer, wire_us: f64) -> Result<LayerReport, String> {
        // One writer's interleaving is as good as another's for the twins:
        // the connections' statements alternate.
        let mut per_conn: Vec<_> = self
            .streams
            .iter()
            .map(|ops| ops.iter().flat_map(Op::stmts))
            .collect();
        let mut stream = Vec::new();
        'outer: loop {
            for it in &mut per_conn {
                match it.next() {
                    Some(s) => stream.push(s.clone()),
                    None => break 'outer,
                }
            }
        }
        let plan = ProbePlan {
            db: TwinDb {
                prepare: Box::new(load),
                triggers: pg_covid::triggers::PAPER_TRIGGERS
                    .iter()
                    .map(|t| t.to_string())
                    .collect(),
            },
            durable: true,
            wire: true,
            primary: Kind::Write,
            stream,
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
    fn mix_is_seventy_twenty_ten() {
        let w = WriteBurst::new(4);
        for ops in &w.streams {
            let n = ops.iter().map(|o| o.stmts().len()).sum::<usize>() as f64;
            let in_tx: usize = ops
                .iter()
                .filter(|o| matches!(o, Op::Tx(_)))
                .map(|o| o.stmts().len())
                .sum();
            let single = |text: &[&str]| {
                ops.iter()
                    .filter_map(|o| match o {
                        Op::One(s) => Some(s),
                        Op::Tx(_) => None,
                    })
                    .filter(|s| text.contains(&s.text.as_str()))
                    .count() as f64
            };
            assert_eq!(single(&[CREATE]) / n, 0.70);
            assert_eq!(single(&[SET_BY_SENSOR, SET_BY_SITE_SLOT]) / n, 0.20);
            assert_eq!(in_tx as f64 / n, 0.10);
            assert!(ops
                .iter()
                .all(|o| !matches!(o, Op::Tx(v) if v.len() != TX_LEN)));
        }
    }

    #[test]
    fn stream_is_a_function_of_the_seed_only() {
        let h = |seed| stream_hash(WriteBurst::new(seed).statements());
        assert_eq!(h(5), h(5));
        assert_ne!(h(5), h(6));
    }

    #[test]
    fn every_update_hits_exactly_one_preloaded_reading() {
        let mut s = Session::new();
        load(&mut s);
        let w = WriteBurst::new(2);
        for stmt in w.statements().filter(|s| s.text != CREATE).take(40) {
            let probe = stmt
                .text
                .replace("SET r.value = $value", "RETURN count(*) AS n");
            let out = s.run_with_params(&probe, &stmt.params_map()).unwrap();
            assert_eq!(out.single(), Some(&Value::Int(1)), "{stmt:?}");
        }
    }
}
