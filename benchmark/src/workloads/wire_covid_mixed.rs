//! `wire_covid_mixed` — the paper's §6 scenario over real TCP against a
//! child `pg-serverd --covid --dir <tmp>`: one writer connection (10/12
//! ICU admissions to the undersized Sacco → §6.2.3 relocation cascade,
//! 1/12 tagged critical-mutation discovery → §6.2.1 alert cascade, 1/12
//! lineage redesignation) beside one reader connection cycling the five
//! `pg_covid::wire` read queries until the writer finishes; then SIGKILL,
//! restart on the same directory, and time readiness.
//!
//! Why: it is what a user of this system does, and every layer does some
//! work — the only workload where reads contend with a trigger-firing
//! durable writer (snapshot refresh, writer lock, publication).

use super::{merge_spans, Workload};
use crate::daemon::{check_interrupt, peak_rss_mb, store_bytes, Daemon, TempDir};
use crate::layers::{self, LayerReport, ProbePlan, TwinDb};
use crate::model::{stream_hash, Check, Kind, Round, Stmt};
use crate::span::{Span, Tracer};
use crate::wire::{drive, Conn};
use pg_covid::wire as covid;
use pg_graph::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Writer statements per round; a multiple of the 12-statement mix.
pub const WRITES_PER_ROUND: usize = 360;
const CYCLE: usize = 12;
/// Unmeasured statements per connection before the measured phase.
const WARM_UP: usize = 40;
/// Reader statement ids start here, clear of the writer's.
const READER_ID_BASE: u64 = 1_000_000;
/// Same length each, so WAL bytes do not depend on the seed.
const DESIGNATIONS: [&str; 4] = ["Delta", "Kappa", "Theta", "Gamma"];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Admission { tag: u64, severity: i64 },
    Discovery { tag: u64 },
    Redesignation,
}

pub struct CovidMixed {
    writes: Vec<(Stmt, Role)>,
}

impl CovidMixed {
    pub fn new(seed: u64) -> CovidMixed {
        CovidMixed {
            writes: generate(seed, WRITES_PER_ROUND),
        }
    }

    pub fn statements(&self) -> impl Iterator<Item = &Stmt> {
        self.writes.iter().map(|(s, _)| s)
    }
}

/// The writer's statement stream: per 12 statements, one discovery and
/// one redesignation at seed-chosen positions, admissions elsewhere.
fn generate(seed: u64, n: usize) -> Vec<(Stmt, Role)> {
    assert_eq!(n % CYCLE, 0, "whole cycles only");
    let mut rng = StdRng::seed_from_u64(seed);
    // Six-digit tags whatever the seed: statement and WAL sizes stay put.
    let tag_base: u64 = rng.gen_range(1..=8u64) * 100_000;
    let mut designation = usize::MAX;
    let mut out = Vec::with_capacity(n);
    for cycle in 0..n / CYCLE {
        let discovery_slot = rng.gen_range(0..CYCLE);
        let redesignation_slot = (discovery_slot + rng.gen_range(1..CYCLE)) % CYCLE;
        for slot in 0..CYCLE {
            let id = (cycle * CYCLE + slot) as u64;
            let tag = tag_base + id;
            out.push(if slot == discovery_slot {
                (
                    Stmt::new(id, Kind::Write, covid::discover_critical_mutation(tag)).fired(1),
                    Role::Discovery { tag },
                )
            } else if slot == redesignation_slot {
                // Never the current name again, so `WHEN OLD <> NEW` holds
                // and exactly one alert fires.
                let mut next = rng.gen_range(0..DESIGNATIONS.len());
                if next == designation {
                    next = (next + 1) % DESIGNATIONS.len();
                }
                designation = next;
                let text = covid::redesignate_lineage(DESIGNATIONS[next]);
                (
                    Stmt::new(id, Kind::Write, text).fired(1),
                    Role::Redesignation,
                )
            } else {
                let severity = rng.gen_range(0..=9i64);
                (
                    Stmt::new(
                        id,
                        Kind::Write,
                        covid::icu_admission(tag, "Sacco", severity),
                    ),
                    Role::Admission { tag, severity },
                )
            });
        }
    }
    out
}

/// What the writer has had acknowledged so far, for the reader to probe.
#[derive(Default)]
struct Progress {
    /// `tag << 8 | severity` of the last acknowledged admission; 0 = none.
    admission: AtomicU64,
    /// Tag of the last acknowledged discovery; 0 = none.
    discovery: AtomicU64,
    done: AtomicBool,
}

fn writer_body(
    conn: &mut Conn,
    writes: &[(Stmt, Role)],
    progress: &Progress,
) -> Result<(), String> {
    for (i, (stmt, role)) in writes.iter().enumerate() {
        if i % 64 == 0 {
            check_interrupt()?;
        }
        if conn.run(stmt) {
            match *role {
                Role::Admission { tag, severity } => progress
                    .admission
                    .store(tag << 8 | severity as u64, Ordering::SeqCst),
                Role::Discovery { tag } => progress.discovery.store(tag, Ordering::SeqCst),
                Role::Redesignation => {}
            }
        }
    }
    Ok(())
}

/// The five `pg_covid::wire` reads, cycled until the writer is done. A
/// probe of an acknowledged write is sent after that write's `SUCCESS`,
/// so it must see it: read-your-acknowledged-writes across connections.
fn reader_body(conn: &mut Conn, progress: &Progress) -> Result<(), String> {
    let mut n: u64 = 0;
    while !progress.done.load(Ordering::SeqCst) {
        if n.is_multiple_of(64) {
            check_interrupt()?;
        }
        let id = READER_ID_BASE + n;
        let stmt = match n % 5 {
            0 => match progress.discovery.load(Ordering::SeqCst) {
                0 => Stmt::new(id, Kind::Read, covid::ALERT_COUNT_QUERY),
                tag => {
                    Stmt::new(id, Kind::Read, covid::cascade_alert_query(tag)).expect(Value::Int(1))
                }
            },
            1 => Stmt::new(id, Kind::Read, covid::ORPHANED_PATIENTS_QUERY).expect(Value::Int(0)),
            2 => match progress.admission.load(Ordering::SeqCst) {
                0 => Stmt::new(id, Kind::Read, covid::ALERT_COUNT_QUERY),
                packed => Stmt::new(id, Kind::Read, covid::patient_lookup(packed >> 8))
                    .expect(Value::Int((packed & 0xff) as i64)),
            },
            3 => Stmt::new(id, Kind::Read, covid::treated_at_query("Niguarda")),
            _ => Stmt::new(id, Kind::Read, covid::ALERT_COUNT_QUERY),
        };
        conn.run(&stmt);
        n += 1;
    }
    Ok(())
}

const CRITICAL_ALERTS: &str =
    "MATCH (a:Alert {desc: 'New critical mutation'}) RETURN count(*) AS n";
const PATIENT_COUNT: &str = "MATCH (p:Patient) RETURN count(*) AS n";
const SEVERITY_SUM: &str = "MATCH (p:Patient) RETURN sum(p.severity) AS s";

impl Workload for CovidMixed {
    fn primary(&self) -> Kind {
        Kind::Write
    }

    fn stream_hash(&self) -> u64 {
        stream_hash(self.statements())
    }

    fn op_counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("writer_statements", self.writes.len() as u64),
            ("writer_connections", 1),
            ("reader_connections", 1),
        ]
    }

    fn round(&mut self, origin: Option<Instant>) -> Result<(Round, Vec<Span>), String> {
        // ---- set-up: spawn, seed, arm, connect, first request served ----
        let setup = Instant::now();
        let tmp = TempDir::new("covid")?;
        let store = tmp.path().join("store");
        let daemon = Daemon::spawn(&store, true)?;
        let mut writer = Conn::new(daemon.connect()?, origin.map(Tracer::new));
        let mut reader = Conn::new(daemon.connect()?, origin.map(Tracer::new));
        writer.ask("RETURN 1 AS ready")?;
        let setup_s = setup.elapsed().as_secs_f64();

        for i in 0..WARM_UP {
            writer.ask(&format!("CREATE (:Warm {{i: {i}}})"))?;
            reader.ask("MATCH (w:Warm) RETURN count(*) AS n")?;
        }

        // ---- measured phase ------------------------------------------------
        let progress = Progress::default();
        let writes = &self.writes;
        let (mut conns, measured_s) = drive(vec![writer, reader], |i, conn| {
            if i == 0 {
                let res = writer_body(conn, writes, &progress);
                progress.done.store(true, Ordering::SeqCst);
                res
            } else {
                reader_body(conn, &progress)
            }
        })?;
        let reader = conns.pop().expect("reader connection");
        let mut writer = conns.pop().expect("writer connection");

        // ---- checks against what was acknowledged ----------------------------
        // Expectations assume every write was acknowledged; the first
        // check below says whether that held.
        let count = |pred: fn(&Role) -> bool| writes.iter().filter(|(_, r)| pred(r)).count() as i64;
        let admissions = count(|r| matches!(r, Role::Admission { .. }));
        let discoveries = count(|r| matches!(r, Role::Discovery { .. }));
        let severity_sum: i64 = writes
            .iter()
            .filter_map(|(_, r)| match r {
                Role::Admission { severity, .. } => Some(*severity),
                _ => None,
            })
            .sum();
        let mut checks = vec![
            Check::eq(
                "every write acknowledged",
                Kind::Write,
                writer.acked_writes,
                writes.len() as u64,
            ),
            Check::eq(
                "alerts == acknowledged discoveries",
                Kind::Write,
                writer.ask_i64(CRITICAL_ALERTS)?,
                discoveries,
            ),
            Check::eq(
                "patients == acknowledged admissions",
                Kind::Write,
                writer.ask_i64(PATIENT_COUNT)?,
                admissions,
            ),
            Check::eq(
                "final orphan probe",
                Kind::Read,
                writer.ask_i64(covid::ORPHANED_PATIENTS_QUERY)?,
                0,
            ),
        ];

        // ---- crash and restart ------------------------------------------------
        let mut extra = std::collections::BTreeMap::new();
        if let Some(mb) = peak_rss_mb(daemon.pid()) {
            extra.insert("peak_rss_mb", mb);
        }
        let killed = Instant::now();
        daemon.kill();
        extra.insert(
            "wal_bytes_per_write",
            store_bytes(&store) as f64 / writer.acked_writes.max(1) as f64,
        );
        let restarted = Daemon::spawn(&store, true)?;
        let mut after = Conn::new(restarted.connect()?, None);
        after.ask("RETURN 1 AS ready")?;
        extra.insert("restart_ready_s", killed.elapsed().as_secs_f64());
        checks.extend([
            Check::eq(
                "after restart: every acknowledged admission readable",
                Kind::Write,
                after.ask_i64(PATIENT_COUNT)?,
                admissions,
            ),
            Check::eq(
                "after restart: admitted severities intact",
                Kind::Write,
                after.ask_i64(SEVERITY_SUM)?,
                severity_sum,
            ),
            Check::eq(
                "after restart: alerts intact",
                Kind::Write,
                after.ask_i64(CRITICAL_ALERTS)?,
                discoveries,
            ),
        ]);
        // Triggers are code, not data: the restarted daemon must have
        // re-armed them, so one more discovery raises one more alert.
        let rearm = after.ask(&covid::discover_critical_mutation(999_999))?;
        checks.push(Check::eq(
            "after restart: triggers re-armed",
            Kind::Write,
            rearm.fired,
            1,
        ));
        restarted.kill();

        let mut samples = writer.samples;
        samples.merge(reader.samples);
        let round = Round {
            traced: origin.is_some(),
            setup_s,
            measured_s,
            samples,
            checks,
            extra,
        };
        Ok((round, merge_spans([writer.tracer, reader.tracer])))
    }

    fn layers(&mut self, tracer: &mut Tracer, wire_us: f64) -> Result<LayerReport, String> {
        // The twin replays the writer's stream; after every twelfth write
        // it runs one of the reader's five queries, so read-side layers
        // (refresh, probes) are sampled at the same growing state.
        let mut stream = Vec::new();
        let (mut last_admission, mut last_discovery) = (None, None);
        for (i, (stmt, role)) in self.writes.iter().enumerate() {
            stream.push(stmt.clone());
            match *role {
                Role::Admission { tag, .. } => last_admission = Some(tag),
                Role::Discovery { tag } => last_discovery = Some(tag),
                Role::Redesignation => {}
            }
            if i % CYCLE == CYCLE - 1 {
                let id = READER_ID_BASE + (i / CYCLE) as u64;
                let text = match (i / CYCLE) % 5 {
                    0 => last_discovery.map_or(
                        covid::ALERT_COUNT_QUERY.to_string(),
                        covid::cascade_alert_query,
                    ),
                    1 => covid::ORPHANED_PATIENTS_QUERY.to_string(),
                    2 => last_admission
                        .map_or(covid::ALERT_COUNT_QUERY.to_string(), covid::patient_lookup),
                    3 => covid::treated_at_query("Niguarda"),
                    _ => covid::ALERT_COUNT_QUERY.to_string(),
                };
                stream.push(Stmt::new(id, Kind::Read, text));
            }
        }
        // Everything the daemon's `--covid` start executes except the
        // triggers, which only the `full` twin gets.
        let seed: Vec<String> = covid::setup_statements()
            .into_iter()
            .filter(|stmt| !pg_triggers::is_trigger_ddl(stmt))
            .collect();
        let plan = ProbePlan {
            db: TwinDb {
                prepare: Box::new(move |s| {
                    for stmt in &seed {
                        s.execute(stmt).expect("covid seed statement");
                    }
                }),
                triggers: pg_covid::triggers::PAPER_TRIGGERS
                    .iter()
                    .map(|t| t.to_string())
                    .collect(),
            },
            durable: true,
            wire: true,
            primary: Kind::Write,
            stream,
            sample_every: 4,
            wire_us,
        };
        layers::probe(&plan, tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_ten_one_one_per_cycle() {
        let w = generate(7, 120);
        for cycle in w.chunks(CYCLE) {
            let count = |f: fn(&Role) -> bool| cycle.iter().filter(|(_, r)| f(r)).count();
            assert_eq!(count(|r| matches!(r, Role::Admission { .. })), 10);
            assert_eq!(count(|r| matches!(r, Role::Discovery { .. })), 1);
            assert_eq!(count(|r| matches!(r, Role::Redesignation)), 1);
        }
    }

    #[test]
    fn consecutive_redesignations_differ() {
        let w = generate(3, 600);
        let names: Vec<&str> = w
            .iter()
            .filter(|(_, r)| matches!(r, Role::Redesignation))
            .map(|(s, _)| s.text.as_str())
            .collect();
        assert!(names.len() == 50 && names.windows(2).all(|p| p[0] != p[1]));
    }

    #[test]
    fn stream_is_a_function_of_the_seed_only() {
        let h = |seed| stream_hash(CovidMixed::new(seed).statements());
        assert_eq!(h(11), h(11));
        assert_ne!(h(11), h(12));
    }
}
