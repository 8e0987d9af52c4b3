//! The wire side of a round: closed-loop connections against a child
//! `pg-serverd`. A connection sends its next request only after the
//! previous reply arrived (a graph-database driver waits for each reply),
//! and there are never more connections than cores.

use crate::daemon::check_interrupt;
use crate::model::{Kind, Op, Samples, Stmt};
use crate::span::{timed, Tracer};
use pg_server::{Client, ClientError, QueryResult};
use std::sync::Barrier;
use std::time::Instant;

/// One connection plus everything it measured.
pub struct Conn {
    client: Client,
    pub samples: Samples,
    pub tracer: Option<Tracer>,
    /// Trigger firings reported by this connection's write replies.
    pub fired: i64,
    /// Write statements the server acknowledged with `SUCCESS`.
    pub acked_writes: u64,
    /// Highest snapshot epoch a read on this connection has reported.
    pub last_epoch: i64,
}

impl Conn {
    pub fn new(client: Client, tracer: Option<Tracer>) -> Conn {
        Conn {
            client,
            samples: Samples::default(),
            tracer,
            fired: 0,
            acked_writes: 0,
            last_epoch: -1,
        }
    }

    /// `RUN` + `PULL` everything, timed send → final reply.
    fn round_trip(&mut self, stmt: &Stmt) -> (Result<QueryResult, ClientError>, f64) {
        let start = Instant::now();
        let run = self.client.run(&stmt.text, &stmt.params);
        let ran = Instant::now();
        let res = match run {
            Ok(mut result) => self.client.pull_all().map(|rows| {
                result.rows = rows;
                result
            }),
            Err(e @ ClientError::Server { .. }) => {
                // Same recovery as `Client::run_all`: keep the connection
                // usable after a refused statement.
                let _ = self.client.reset();
                Err(e)
            }
            Err(e) => Err(e),
        };
        let end = Instant::now();
        if let Some(t) = &mut self.tracer {
            let parent = Some("client.run_all");
            t.push(stmt.id, "client.run_all", None, start, end);
            t.push(stmt.id, "client.run", parent, start, ran);
            t.push(stmt.id, "client.pull", parent, ran, end);
        }
        (res, (end - start).as_nanos() as f64 / 1e3)
    }

    /// Check a reply against the statement's expectations and book it.
    fn book(&mut self, stmt: &Stmt, res: Result<QueryResult, ClientError>, us: f64) -> bool {
        self.samples.attempted += 1;
        self.samples.record(stmt.kind, us);
        let out = match res {
            Ok(out) => out,
            Err(e) => {
                self.samples.fail(|| format!("stmt {}: {e}", stmt.id));
                return false;
            }
        };
        if stmt.kind == Kind::Write {
            self.acked_writes += 1;
            self.fired += out.fired;
        }
        if let Some(epoch) = out.epoch {
            if epoch < self.last_epoch {
                self.samples.fail(|| {
                    format!(
                        "stmt {}: epoch went back to {epoch} from {}",
                        stmt.id, self.last_epoch
                    )
                });
                return false;
            }
            self.last_epoch = epoch;
        }
        if let Some(want) = &stmt.expect_single {
            if out.single() != Some(want) {
                self.samples.fail(|| {
                    format!(
                        "stmt {} `{}`: got {:?}, want {want:?}",
                        stmt.id,
                        stmt.text,
                        out.single()
                    )
                });
                return false;
            }
        }
        if let Some(want) = stmt.expect_fired {
            if out.fired != want {
                self.samples.fail(|| {
                    format!(
                        "stmt {}: fired {} triggers, want {want}",
                        stmt.id, out.fired
                    )
                });
                return false;
            }
        }
        true
    }

    /// Run one auto-commit statement. `true` when it came back correct.
    pub fn run(&mut self, stmt: &Stmt) -> bool {
        let (res, us) = self.round_trip(stmt);
        self.book(stmt, res, us)
    }

    /// Run an explicit transaction. The first statement's latency
    /// includes `BEGIN`, the last one's includes `COMMIT`: that is what
    /// the caller of those statements waits for.
    pub fn run_tx(&mut self, stmts: &[Stmt]) {
        let Some((first, last)) = stmts.first().zip(stmts.last()) else {
            return;
        };
        let (begun, begin_us) = timed(&mut self.tracer, first.id, "client.begin", None, || {
            self.client.begin()
        });
        if begun.is_err() {
            for s in stmts {
                self.book(s, Err(ClientError::Unexpected("BEGIN refused")), 0.0);
            }
            return;
        }
        let mut results = Vec::with_capacity(stmts.len());
        for s in stmts {
            results.push(self.round_trip(s));
        }
        let (committed, commit_us) =
            timed(&mut self.tracer, last.id, "client.commit", None, || {
                self.client.commit()
            });
        let n = results.len();
        for (i, (s, (res, mut us))) in stmts.iter().zip(results).enumerate() {
            if i == 0 {
                us += begin_us;
            }
            if i + 1 == n {
                us += commit_us;
            }
            let res = match (&committed, res) {
                (Err(_), Ok(_)) => Err(ClientError::Unexpected("COMMIT refused")),
                (_, res) => res,
            };
            self.book(s, res, us);
        }
        match committed {
            Ok(fired) => self.fired += fired,
            Err(_) => {
                let _ = self.client.reset();
            }
        }
    }

    pub fn run_op(&mut self, op: &Op) {
        match op {
            Op::One(s) => {
                self.run(s);
            }
            Op::Tx(stmts) => self.run_tx(stmts),
        }
    }

    /// An unmeasured statement (warm-up, audits); the raw result.
    pub fn ask(&mut self, text: &str) -> Result<QueryResult, String> {
        self.client
            .run_all(text, &[])
            .map_err(|e| format!("`{text}`: {e}"))
    }

    /// An unmeasured audit query returning one integer.
    pub fn ask_i64(&mut self, text: &str) -> Result<i64, String> {
        self.ask(text)?
            .single_i64()
            .ok_or_else(|| format!("`{text}` returned no integer"))
    }
}

/// Drive every connection on its own thread through `body`, all starting
/// together. Returns the connections and the wall time from the common
/// start to the last one finishing.
pub fn drive<F>(conns: Vec<Conn>, body: F) -> Result<(Vec<Conn>, f64), String>
where
    F: Fn(usize, &mut Conn) -> Result<(), String> + Sync,
{
    let barrier = Barrier::new(conns.len() + 1);
    let (barrier, body) = (&barrier, &body);
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, mut conn)| {
                scope.spawn(move || {
                    barrier.wait();
                    let res = body(i, &mut conn);
                    (conn, res)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut conns = Vec::new();
        let mut first_err = None;
        for h in handles {
            let (conn, res) = h
                .join()
                .map_err(|_| "a client thread panicked".to_string())?;
            conns.push(conn);
            if let Err(e) = res {
                first_err.get_or_insert(e);
            }
        }
        let wall = start.elapsed().as_secs_f64();
        match first_err {
            Some(e) => Err(e),
            None => Ok((conns, wall)),
        }
    })
}

/// Run a fixed operation list on a connection, polling the interrupt flag.
pub fn run_ops(conn: &mut Conn, ops: &[Op]) -> Result<(), String> {
    for (i, op) in ops.iter().enumerate() {
        if i % 64 == 0 {
            check_interrupt()?;
        }
        conn.run_op(op);
    }
    Ok(())
}
