//! `engine_cascade` — in process, one thread, in-memory sessions (no
//! socket, no WAL): a fixed statement stream over a trigger set covering
//! the §4.2 grid — 16 `AFTER CREATE … FOR EACH NODE` triggers on one label
//! of which half have a false `WHEN` (suppressed), a depth-8 chain, one
//! `FOR ALL` `ONCOMMIT` aggregator, one `DETACHED`, one `BEFORE` setter —
//! plus `Scenario::admission_wave` statements on the §6 scenario with the
//! PG-Schema guard installed (its own session: the CoV2K graph type is
//! STRICT and would reject the grid's labels).
//!
//! Why: trigger dispatch, condition evaluation and per-activation
//! re-planning of trigger bodies do most of the work; `server` and `wal`
//! do none. An optimisation of the trigger layer must move this workload
//! and must not move `engine_analytic_join`.

use super::Workload;
use crate::daemon::check_interrupt;
use crate::layers::{self, LayerReport, ProbePlan, TwinDb};
use crate::model::{stream_hash, Check, Kind, Round, Stmt};
use crate::span::{timed, Span, Tracer};
use crate::stats::median;
use pg_bench::workloads::{install_chain, install_n_triggers};
use pg_covid::{Scenario, ScenarioConfig};
use pg_graph::Value;
use pg_triggers::{EngineStats, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Statements per round: whole 10-statement blocks of 7 grid creates,
/// 2 chain starts and 1 admission wave.
pub const STATEMENTS_PER_ROUND: usize = 500;
const BLOCK: usize = 10;
const TARGETS_PER_BLOCK: usize = 7;
const CHAINS_PER_BLOCK: usize = 2;
/// Patients admitted by one wave statement.
const WAVE_SIZE: usize = 4;
const FIRING: usize = 8;
const SUPPRESSED: usize = 8;
const CHAIN_DEPTH: usize = 8;

const TARGET: &str = "CREATE (:Target {i: $i})";
const CHAIN: &str = "CREATE (:L0)";
/// Not Cypher: marks a `Scenario::admission_wave("Sacco", WAVE_SIZE)` call.
const WAVE: &str = "admission_wave('Sacco')";

/// The grid's triggers beyond the shared `install_n_triggers` /
/// `install_chain` fixtures.
fn extra_grid_triggers() -> Vec<String> {
    let mut ddl: Vec<String> = (0..SUPPRESSED)
        .map(|i| {
            format!(
                "CREATE TRIGGER quiet{i} AFTER CREATE ON 'Target' FOR EACH NODE \
                 WHEN NEW.i < 0 BEGIN CREATE (:Fired {{by: -1}}) END"
            )
        })
        .collect();
    ddl.extend([
        "CREATE TRIGGER tally ONCOMMIT CREATE ON 'Target' FOR ALL NODES \
         BEGIN MATCH (t:NEWNODES) WITH count(t) AS n CREATE (:Tally {n: n}) END"
            .to_string(),
        "CREATE TRIGGER audit DETACHED CREATE ON 'Target' FOR EACH NODE \
         BEGIN CREATE (:Audit {of: NEW.i}) END"
            .to_string(),
        "CREATE TRIGGER stamp BEFORE CREATE ON 'Target' FOR EACH NODE \
         BEGIN SET NEW.stamped = true END"
            .to_string(),
    ]);
    ddl
}

/// Arm a session with the whole grid.
fn install_grid(s: &mut Session) {
    install_n_triggers(s, FIRING, true);
    for ddl in extra_grid_triggers() {
        s.install(&ddl).expect("grid trigger installs");
    }
    install_chain(s, CHAIN_DEPTH);
}

fn scenario(guarded: bool) -> Scenario {
    let mut sc = Scenario::new(ScenarioConfig {
        indexed: true,
        ..ScenarioConfig::default()
    });
    if guarded {
        sc.session.set_schema(pg_covid::covid_graph_type());
    }
    sc
}

fn generate(seed: u64, n: usize) -> Vec<Stmt> {
    assert_eq!(n % BLOCK, 0, "whole blocks only");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for block in 0..n / BLOCK {
        // Shuffle the block's kinds: 0 = target, 1 = chain, 2 = wave.
        let mut kinds = [0u8; BLOCK];
        kinds[TARGETS_PER_BLOCK..TARGETS_PER_BLOCK + CHAINS_PER_BLOCK].fill(1);
        kinds[TARGETS_PER_BLOCK + CHAINS_PER_BLOCK..].fill(2);
        for i in (1..BLOCK).rev() {
            kinds.swap(i, rng.gen_range(0..=i));
        }
        for (slot, kind) in kinds.into_iter().enumerate() {
            let id = (block * BLOCK + slot) as u64;
            out.push(match kind {
                0 => Stmt::new(id, Kind::Write, TARGET)
                    .param("i", Value::Int(rng.gen_range(0..1_000_000i64))),
                1 => Stmt::new(id, Kind::Write, CHAIN),
                _ => Stmt::new(id, Kind::Write, WAVE),
            });
        }
    }
    out
}

/// What the trigger counters must read after `stmts`, in closed form.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    grid: EngineStats,
    /// Scenario session: every wave activates three `FOR ALL` triggers
    /// once and the one `FOR EACH` trigger once per admitted patient.
    wave_activations: u64,
    admitted: i64,
}

fn expected(stmts: &[Stmt]) -> Expected {
    let count = |text: &str| stmts.iter().filter(|s| s.text == text).count() as u64;
    let (targets, chains, waves) = (count(TARGET), count(CHAIN), count(WAVE));
    Expected {
        grid: EngineStats {
            // Per Target: 8 unconditional AFTER + BEFORE + ONCOMMIT +
            // DETACHED; per chain start: one firing per link.
            fired: targets * (FIRING as u64 + 3) + chains * CHAIN_DEPTH as u64,
            suppressed: targets * SUPPRESSED as u64,
            max_depth_seen: if chains > 0 {
                CHAIN_DEPTH
            } else {
                usize::from(targets > 0)
            },
            detached_runs: targets,
            commit_rounds: targets,
        },
        wave_activations: waves * (3 + WAVE_SIZE as u64),
        admitted: (waves * WAVE_SIZE as u64) as i64,
    }
}

pub struct Cascade {
    stmts: Vec<Stmt>,
}

impl Cascade {
    pub fn new(seed: u64) -> Cascade {
        Cascade {
            stmts: generate(seed, STATEMENTS_PER_ROUND),
        }
    }

    pub fn statements(&self) -> impl Iterator<Item = &Stmt> {
        self.stmts.iter()
    }
}

const ADMITTED: &str = "MATCH (p:IcuPatient) WHERE p.ssn STARTS WITH 'ADM' RETURN count(*) AS n";
const ORPHANS: &str = pg_covid::wire::ORPHANED_PATIENTS_QUERY;

fn checks(grid: &Session, sc: &mut Scenario, want: &Expected) -> Vec<Check> {
    let waves = sc.session.stats();
    let ask = |sc: &mut Scenario, q: &str| {
        sc.session
            .run(q)
            .ok()
            .and_then(|o| o.single().and_then(Value::as_i64))
            .unwrap_or(-1)
    };
    vec![
        Check::eq(
            "grid trigger counters == closed form",
            Kind::Write,
            grid.stats(),
            want.grid,
        ),
        Check::eq(
            "wave activations == closed form",
            Kind::Write,
            waves.fired + waves.suppressed,
            want.wave_activations,
        ),
        Check::eq(
            "no detached trigger failed",
            Kind::Write,
            grid.detached_errors().len(),
            0,
        ),
        Check::eq(
            "admitted patients",
            Kind::Write,
            ask(sc, ADMITTED),
            want.admitted,
        ),
        Check::eq(
            "no admitted patient orphaned",
            Kind::Write,
            ask(sc, ORPHANS),
            0,
        ),
    ]
}

impl Workload for Cascade {
    fn primary(&self) -> Kind {
        Kind::Write
    }

    fn stream_hash(&self) -> u64 {
        stream_hash(self.statements())
    }

    fn op_counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("statements", self.stmts.len() as u64),
            ("wave_size", WAVE_SIZE as u64),
            ("threads", 1),
        ]
    }

    fn round(&mut self, origin: Option<Instant>) -> Result<(Round, Vec<Span>), String> {
        let setup = Instant::now();
        let mut grid = Session::new();
        install_grid(&mut grid);
        let mut sc = scenario(true);
        let setup_s = setup.elapsed().as_secs_f64();

        let mut round = Round {
            traced: origin.is_some(),
            setup_s,
            ..Round::default()
        };
        let mut tracer = origin.map(Tracer::new);
        let start = Instant::now();
        for (i, stmt) in self.stmts.iter().enumerate() {
            if i % 256 == 0 {
                check_interrupt()?;
            }
            let (res, us) = timed(&mut tracer, stmt.id, "client.call", None, || {
                if stmt.text == WAVE {
                    sc.admission_wave("Sacco", WAVE_SIZE).map(|_| ())
                } else {
                    grid.run_with_params(&stmt.text, &stmt.params_map())
                        .map(|_| ())
                }
            });
            round.samples.attempted += 1;
            round.samples.record(Kind::Write, us);
            if let Err(e) = res {
                round
                    .samples
                    .fail(|| format!("stmt {} `{}`: {e}", stmt.id, stmt.text));
            }
        }
        round.measured_s = start.elapsed().as_secs_f64();
        round.checks = checks(&grid, &mut sc, &expected(&self.stmts));
        Ok((round, tracer.map(|t| t.spans).unwrap_or_default()))
    }

    fn layers(&mut self, tracer: &mut Tracer, wire_us: f64) -> Result<LayerReport, String> {
        // Grid statements go through the generic twins. The fixture
        // helpers install into a session, so read their DDL back from one.
        let mut fixture = Session::new();
        install_grid(&mut fixture);
        let triggers = fixture.catalog().all().map(|t| t.spec.to_ddl()).collect();
        let plan = ProbePlan {
            db: TwinDb {
                prepare: Box::new(|_| {}),
                triggers,
            },
            durable: false,
            wire: false,
            primary: Kind::Write,
            stream: self
                .stmts
                .iter()
                .filter(|s| s.text != WAVE)
                .cloned()
                .collect(),
            sample_every: 4,
            wire_us,
        };
        let mut report = layers::probe(&plan, tracer)?;

        // The schema guard: the same waves on a guarded and an unguarded
        // scenario; the guard runs at commit, so the difference is its cost.
        let (mut guarded, mut bare) = (scenario(true), scenario(false));
        let mut diffs = Vec::new();
        for stmt in self.stmts.iter().filter(|s| s.text == WAVE) {
            let mut time = |sc: &mut Scenario, name| {
                let start = Instant::now();
                let res = sc.admission_wave("Sacco", WAVE_SIZE);
                let end = Instant::now();
                res.map(|_| tracer.push(stmt.id, name, None, start, end))
                    .map_err(|e| format!("wave {}: {e}", stmt.id))
            };
            diffs.push(
                time(&mut guarded, "schema.guarded_wave")? - time(&mut bare, "schema.bare_wave")?,
            );
        }
        report
            .metrics
            .insert("schema.guard_us_per_commit", median(&diffs));
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(stmts: &[Stmt]) -> (Session, Scenario) {
        let mut grid = Session::new();
        install_grid(&mut grid);
        let mut sc = scenario(true);
        for s in stmts {
            if s.text == WAVE {
                sc.admission_wave("Sacco", WAVE_SIZE).unwrap();
            } else {
                grid.run_with_params(&s.text, &s.params_map()).unwrap();
            }
        }
        (grid, sc)
    }

    #[test]
    fn closed_form_matches_the_engine() {
        let stmts = generate(21, 60);
        let (grid, mut sc) = run(&stmts);
        let want = expected(&stmts);
        assert_eq!(want.grid.fired, 42 * 11 + 12 * 8);
        for c in checks(&grid, &mut sc, &want) {
            assert!(c.ok, "{}: {}", c.name, c.detail);
        }
    }

    #[test]
    fn a_corrupted_expectation_fails_the_check() {
        let stmts = generate(21, 20);
        let (grid, mut sc) = run(&stmts);
        let mut want = expected(&stmts);
        want.grid.suppressed += 1;
        want.wave_activations -= 1;
        let failed: Vec<&str> = checks(&grid, &mut sc, &want)
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name)
            .collect();
        assert_eq!(
            failed,
            [
                "grid trigger counters == closed form",
                "wave activations == closed form"
            ]
        );
    }

    #[test]
    fn blocks_hold_seven_two_one_and_depend_on_the_seed_only() {
        let stmts = generate(8, 100);
        for block in stmts.chunks(BLOCK) {
            let n = |t: &str| block.iter().filter(|s| s.text == t).count();
            assert_eq!((n(TARGET), n(CHAIN), n(WAVE)), (7, 2, 1));
        }
        let h = |seed| stream_hash(Cascade::new(seed).statements());
        assert_eq!(h(5), h(5));
        assert_ne!(h(5), h(6));
    }
}
