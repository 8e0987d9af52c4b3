//! `engine_analytic_join` — in process, one driver thread on a
//! `ReadSession` over a published snapshot of the Zipf follower graph: a
//! fixed count of queries cycling four texts — hub-correlated two-hop
//! join count (the one whose estimate misses by 30×), uniform two-hop
//! join, index-served top-k `ORDER BY … LIMIT`, range scan with
//! aggregation.
//!
//! Why: match/batch/morsel execution and adjacency/index walks do nearly
//! all the work and parse/plan are noise. Planner, executor and storage
//! changes must hold or improve this while the trigger and wire layers
//! are bypassed.

use super::Workload;
use crate::daemon::check_interrupt;
use crate::layers::{self, LayerReport, ProbePlan, TwinDb};
use crate::model::{stream_hash, Kind, Round, Stmt};
use crate::span::{timed, Span, Tracer};
use pg_bench::zipf::follower_graph;
use pg_cypher::{parse_query, Executor, MatchMode, Target};
use pg_graph::Value;
use pg_triggers::{ReadSession, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Follower-graph size: users, FOLLOWS edges, uniform posts per user,
/// Zipf-allocated posts.
pub const USERS: usize = 300;
const FOLLOWS: usize = 2_400;
const POSTS_PER_USER: usize = 4;
const ZIPF_POSTS: usize = 1_200;
/// Queries per round: whole 8-query cycles (see [`CYCLE`]).
pub const QUERIES_PER_ROUND: usize = 32;

const HUB_JOIN: &str = "MATCH (u:User) MATCH (u)-[:FOLLOWS]->(h:User)-[:WROTE_Z]->(p:Post) \
                        RETURN count(*) AS n";
const UNIFORM_JOIN: &str = "MATCH (u:User) MATCH (u)-[:FOLLOWS]->(h:User)-[:WROTE]->(p:Post) \
                            RETURN count(*) AS n";
const TOP_K: &str =
    "MATCH (u:User) WHERE u.id < $hi WITH u ORDER BY u.id DESC LIMIT 10 RETURN u.id AS id";
const RANGE_AGG: &str = "MATCH (u:User) WHERE u.id >= $lo AND u.id < $hi \
                         MATCH (u)-[:WROTE]->(p:Post) RETURN count(p) AS posts";

/// The mix, as indexes into the four texts above. The two cheap texts are
/// three eighths each and the two joins one eighth each, so the median
/// falls inside one text's latencies and the 95th percentile inside the
/// slowest text's, not on a boundary between two.
const CYCLE: [usize; 8] = [2, 3, 2, 0, 3, 2, 3, 1];

fn build() -> Session {
    let mut s = Session::new();
    *s.graph_mut() = follower_graph(USERS, FOLLOWS, POSTS_PER_USER, ZIPF_POSTS);
    s.graph_mut().create_index("User", "id");
    s.graph_mut().rebuild_stats();
    s
}

fn generate(seed: u64, n: usize) -> Vec<Stmt> {
    assert_eq!(n % CYCLE.len(), 0, "whole cycles only");
    let mut rng = StdRng::seed_from_u64(seed);
    // A few parameter variants per text, so set-up can compute each
    // distinct query's reference answer once. The range is always half
    // the users wide — the seed moves it, it does not resize it — so
    // every seed's queries cost the same.
    let width = USERS as i64 / 2;
    let los: Vec<i64> = (0..4).map(|_| rng.gen_range(0..width)).collect();
    let his: Vec<i64> = los.iter().map(|lo| lo + width).collect();
    (0..n)
        .map(|k| {
            let id = k as u64;
            let v = rng.gen_range(0..4usize);
            match CYCLE[k % CYCLE.len()] {
                0 => Stmt::new(id, Kind::Read, HUB_JOIN),
                1 => Stmt::new(id, Kind::Read, UNIFORM_JOIN),
                2 => Stmt::new(id, Kind::Read, TOP_K).param("hi", Value::Int(his[v])),
                _ => Stmt::new(id, Kind::Read, RANGE_AGG)
                    .param("lo", Value::Int(los[v]))
                    .param("hi", Value::Int(his[v])),
            }
        })
        .collect()
}

/// Rows of every distinct `(text, params)` under the reference matcher.
type Reference = Vec<(String, Vec<(String, Value)>, Vec<Vec<Value>>)>;

fn reference_answers(reader: &ReadSession, stmts: &[Stmt]) -> Result<Reference, String> {
    let mut answers: Reference = Vec::new();
    for s in stmts {
        if answers
            .iter()
            .any(|(t, p, _)| *t == s.text && *p == s.params)
        {
            continue;
        }
        let ast = parse_query(&s.text).map_err(|e| e.to_string())?;
        let params = s.params_map();
        let out = Executor::new(Target::Read(reader.snapshot()), &params, 0)
            .with_match_mode(MatchMode::Reference)
            .run(&ast, Vec::new())
            .map_err(|e| format!("reference `{}`: {e}", s.text))?;
        answers.push((s.text.clone(), s.params.clone(), out.rows));
    }
    Ok(answers)
}

fn matches_reference(reference: &Reference, s: &Stmt, rows: &[Vec<Value>]) -> bool {
    reference
        .iter()
        .any(|(t, p, want)| *t == s.text && *p == s.params && want == rows)
}

pub struct AnalyticJoin {
    stmts: Vec<Stmt>,
}

impl AnalyticJoin {
    pub fn new(seed: u64) -> AnalyticJoin {
        AnalyticJoin {
            stmts: generate(seed, QUERIES_PER_ROUND),
        }
    }

    pub fn statements(&self) -> impl Iterator<Item = &Stmt> {
        self.stmts.iter()
    }
}

impl Workload for AnalyticJoin {
    fn primary(&self) -> Kind {
        Kind::Read
    }

    fn stream_hash(&self) -> u64 {
        stream_hash(self.statements())
    }

    fn op_counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("users", USERS as u64),
            ("follows", FOLLOWS as u64),
            ("queries", self.stmts.len() as u64),
            ("driver_threads", 1),
        ]
    }

    fn round(&mut self, origin: Option<Instant>) -> Result<(Round, Vec<Span>), String> {
        // ---- set-up: build, index, publish, and the reference answers --------
        let setup = Instant::now();
        let mut session = build();
        let mut reader = ReadSession::new(session.reader_handle());
        let reference = reference_answers(&reader, &self.stmts)?;
        let setup_s = setup.elapsed().as_secs_f64();

        let mut round = Round {
            traced: origin.is_some(),
            setup_s,
            ..Round::default()
        };
        let mut tracer = origin.map(Tracer::new);
        let start = Instant::now();
        for (i, stmt) in self.stmts.iter().enumerate() {
            if i % 16 == 0 {
                check_interrupt()?;
            }
            let params = stmt.params_map();
            let (res, us) = timed(&mut tracer, stmt.id, "client.call", None, || {
                reader.run_with_params(&stmt.text, &params)
            });
            round.samples.attempted += 1;
            round.samples.record(Kind::Read, us);
            match res {
                Ok(out) if matches_reference(&reference, stmt, &out.rows) => {}
                Ok(out) => round.samples.fail(|| {
                    format!(
                        "stmt {} `{}`: {} rows differ from the reference run",
                        stmt.id,
                        stmt.text,
                        out.rows.len()
                    )
                }),
                Err(e) => round
                    .samples
                    .fail(|| format!("stmt {} `{}`: {e}", stmt.id, stmt.text)),
            }
        }
        round.measured_s = start.elapsed().as_secs_f64();
        Ok((round, tracer.map(|t| t.spans).unwrap_or_default()))
    }

    fn layers(&mut self, tracer: &mut Tracer, wire_us: f64) -> Result<LayerReport, String> {
        let plan = ProbePlan {
            db: TwinDb {
                prepare: Box::new(|s| *s = build()),
                triggers: Vec::new(),
            },
            durable: false,
            wire: false,
            primary: Kind::Read,
            stream: self.stmts.clone(),
            sample_every: 1,
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
        let h = |seed| stream_hash(AnalyticJoin::new(seed).statements());
        assert_eq!(h(5), h(5));
        assert_ne!(h(5), h(6));
    }

    #[test]
    fn batched_answers_equal_the_reference_and_a_wrong_one_is_caught() {
        let stmts = generate(4, 16);
        let mut session = build();
        let mut reader = ReadSession::new(session.reader_handle());
        let reference = reference_answers(&reader, &stmts).unwrap();
        for s in &stmts {
            let out = reader.run_with_params(&s.text, &s.params_map()).unwrap();
            assert!(matches_reference(&reference, s, &out.rows), "{}", s.text);
            let mut wrong = out.rows.clone();
            wrong.push(vec![Value::Int(-1)]);
            assert!(!matches_reference(&reference, s, &wrong));
        }
    }
}
