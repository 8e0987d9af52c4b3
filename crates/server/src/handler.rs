//! Per-connection request handling: the Bolt-style session state machine.
//!
//! One OS thread per connection, one loop per thread. The states a
//! connection moves through:
//!
//! * **handshake** — the first frame must be `HELLO`; anything else is a
//!   failure and the connection closes.
//! * **ready** — `RUN` executes a statement and answers `SUCCESS` with
//!   the result's `fields`; the rows wait server-side for `PULL`.
//! * **streaming** — each `PULL n` sends up to `n` `RECORD` frames and
//!   one `SUCCESS {has_more}`; `DISCARD` drops the rest. Rows leave the
//!   pending buffer as they are written, so the server never holds more
//!   than the un-pulled remainder of one result per connection — the
//!   client controls the pace (backpressure), and a slow client
//!   backpressures through the socket, not through server memory.
//! * **transaction** — `BEGIN` acquires the shared writer session and
//!   holds it until `COMMIT`/`ROLLBACK`/`RESET`/disconnect. Statements
//!   inside the transaction run on the writer (they see its uncommitted
//!   writes); a dropped connection rolls the transaction back before the
//!   writer is released.
//! * **failed** — after a `FAILURE` response every request except
//!   `RESET`/`GOODBYE` answers `IGNORED`, so a pipelined client cannot
//!   run statements against a state it has not acknowledged. `RESET`
//!   clears the failure, discards any pending result, and rolls back an
//!   open transaction.
//!
//! Auto-commit routing: read-only statements run on the connection's
//! private [`ReadSession`] against a freshly pinned snapshot — they never
//! take the writer lock, and they observe trigger cascades atomically
//! (a snapshot is a published commit epoch: all of a cascade's effects or
//! none). Updating statements, DDL, and `EXPLAIN` serialize through the
//! writer. The route is a property of the statement's text, decided when
//! the text is first prepared on the connection's statement cache
//! ([`Prepared::is_snapshot_read`]); a repeated text is neither parsed
//! nor classified again.

use crate::engine::Engine;
use crate::protocol::{self, Request, Response, WireError, SERVER_AGENT};
use pg_cypher::{Params, Prepared};
use pg_graph::Value;
use pg_triggers::{ExecResult, ReadSession, Session, TriggerError};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::MutexGuard;

/// Buffered frame I/O over one socket.
struct Wire {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Wire {
    fn new(stream: TcpStream) -> std::io::Result<Wire> {
        let write_half = stream.try_clone()?;
        Ok(Wire {
            r: BufReader::new(stream),
            w: BufWriter::new(write_half),
        })
    }

    fn recv(&mut self) -> Result<Request, WireError> {
        let payload = protocol::read_frame(&mut self.r)?;
        protocol::decode_request(&payload)
    }

    /// Queue one response frame (flushed explicitly, so a record stream
    /// amortizes syscalls without buffering the whole result).
    fn send(&mut self, resp: &Response) -> Result<(), WireError> {
        let mut payload = Vec::new();
        protocol::encode_response(resp, &mut payload);
        protocol::write_frame(&mut self.w, &payload)
    }

    fn flush(&mut self) -> Result<(), WireError> {
        self.w.flush()?;
        Ok(())
    }

    fn send_flush(&mut self, resp: &Response) -> Result<(), WireError> {
        self.send(resp)?;
        self.flush()
    }
}

/// A statement's result waiting to be pulled.
struct Pending {
    rows: VecDeque<Vec<Value>>,
}

fn success(meta: Vec<(String, Value)>) -> Response {
    Response::Success { meta }
}

fn failure(code: &str, message: impl Into<String>) -> Response {
    Response::Failure {
        code: code.to_string(),
        message: message.into(),
    }
}

/// Stable failure code per engine error family — what clients branch on.
fn error_code(e: &TriggerError) -> &'static str {
    match e {
        TriggerError::Install(_) => "Trigger.Install",
        TriggerError::Cypher(_) => "Statement.Error",
        TriggerError::Store(_) => "Store.Error",
        TriggerError::RecursionLimit { .. } => "Trigger.RecursionLimit",
        TriggerError::CommitFixpointDiverged { .. } => "Trigger.CommitDiverged",
        TriggerError::Session(_) => "Session.Error",
        TriggerError::UnknownTrigger(_) => "Trigger.Unknown",
        TriggerError::Schema(_) => "Schema.Violation",
    }
}

fn engine_failure(e: &TriggerError) -> Response {
    failure(error_code(e), e.to_string())
}

/// Flatten an [`ExecResult`] into `(columns, rows)` for the wire. DDL
/// acknowledgements become a one-row `summary` column; `EXPLAIN` streams
/// its report one line per record (it can be long).
fn result_rows(res: ExecResult) -> (Vec<String>, VecDeque<Vec<Value>>) {
    fn summary(text: String) -> (Vec<String>, VecDeque<Vec<Value>>) {
        (
            vec!["summary".to_string()],
            VecDeque::from([vec![Value::Str(text)]]),
        )
    }
    match res {
        ExecResult::Query(out) => (out.columns, out.rows.into()),
        ExecResult::Explain(report) => (
            vec!["plan".to_string()],
            report.lines().map(|l| vec![Value::str(l)]).collect(),
        ),
        ExecResult::TriggerCreated(name) => summary(format!("trigger created: {name}")),
        ExecResult::TriggerDropped(name) => summary(format!("trigger dropped: {name}")),
        ExecResult::IndexCreated(def) => summary(format!("index created: {def}")),
        ExecResult::IndexDropped(def) => summary(format!("index dropped: {def}")),
    }
}

/// Outcome of one statement executed server-side.
struct RunOutcome {
    columns: Vec<String>,
    rows: VecDeque<Vec<Value>>,
    /// Trigger firings this statement caused (writer statements only).
    fired: u64,
    /// The epoch/WAL position the result reflects, for observability.
    epoch_meta: Vec<(String, Value)>,
}

/// Execute one auto-commit statement, routing read-only queries to the
/// private snapshot reader and everything else to the shared writer.
fn run_autocommit(
    engine: &Engine,
    reader: &mut ReadSession,
    stmt: &Prepared,
    params: &Params,
) -> Result<RunOutcome, TriggerError> {
    if stmt.is_snapshot_read() {
        // Read-only: fresh snapshot, no writer lock. The pinned epoch
        // is a committed one, so cascade effects appear atomically.
        let epoch = reader.refresh();
        let out = reader.run_prepared(stmt, Vec::new(), params)?;
        return Ok(RunOutcome {
            columns: out.columns,
            rows: out.rows.into(),
            fired: 0,
            epoch_meta: vec![("epoch".to_string(), Value::Int(epoch as i64))],
        });
    }
    let mut writer = engine.writer();
    run_on_writer(&mut writer, stmt, params)
}

/// Execute one statement on the writer session (auto-commit or in-tx).
fn run_on_writer(
    session: &mut Session,
    stmt: &Prepared,
    params: &Params,
) -> Result<RunOutcome, TriggerError> {
    let fired_before = session.stats().fired;
    let res = session.run_prepared(stmt, Vec::new(), params)?;
    let fired = session.stats().fired - fired_before;
    let (columns, rows) = result_rows(res);
    // A WAL sequence only means something on a durable server.
    let epoch_meta = if session.is_durable() {
        vec![("wal_seq".to_string(), Value::Int(session.wal_seq() as i64))]
    } else {
        Vec::new()
    };
    Ok(RunOutcome {
        columns,
        rows,
        fired,
        epoch_meta,
    })
}

fn run_success_meta(out: &RunOutcome) -> Vec<(String, Value)> {
    let mut meta = vec![(
        "fields".to_string(),
        Value::list(out.columns.iter().map(|c| Value::str(c.as_str()))),
    )];
    meta.push(("fired".to_string(), Value::Int(out.fired as i64)));
    meta.extend(out.epoch_meta.iter().cloned());
    meta
}

/// Stream up to `n` records from `pending`, then the `has_more` SUCCESS.
/// Consumed rows are freed as they are written: the server-side footprint
/// of a result only ever shrinks, and a huge result pulled in chunks is
/// paced entirely by the client.
fn pull(wire: &mut Wire, pending: &mut Option<Pending>, n: u64) -> Result<(), WireError> {
    let Some(p) = pending.as_mut() else {
        return wire.send_flush(&failure(
            "Request.Invalid",
            "PULL with no pending result (RUN first)",
        ));
    };
    let mut sent: u64 = 0;
    while sent < n {
        let Some(values) = p.rows.pop_front() else {
            break;
        };
        wire.send(&Response::Record { values })?;
        sent += 1;
    }
    let has_more = !p.rows.is_empty();
    if !has_more {
        *pending = None;
    }
    wire.send(&success(vec![(
        "has_more".to_string(),
        Value::Bool(has_more),
    )]))?;
    wire.flush()
}

/// Serve one accepted connection until the peer leaves. Returns `Ok` on
/// clean closes; the error is for abnormal transport/protocol failures
/// (logged by the caller, connection dropped either way).
pub(crate) fn serve_connection(engine: &Engine, stream: TcpStream) -> Result<(), WireError> {
    // Small frames dominate the protocol; Nagle would add latency.
    let _ = stream.set_nodelay(true);
    let mut wire = Wire::new(stream)?;

    // ---- handshake ----------------------------------------------------
    match wire.recv() {
        Ok(Request::Hello { .. }) => {
            wire.send_flush(&success(vec![
                ("server".to_string(), Value::str(SERVER_AGENT)),
                ("epoch".to_string(), Value::Int(engine.epoch() as i64)),
            ]))?;
        }
        Ok(Request::Goodbye) | Err(WireError::Closed) => return Ok(()),
        Ok(_) => {
            wire.send_flush(&failure("Request.Invalid", "expected HELLO"))?;
            return Ok(());
        }
        Err(e) => return Err(e),
    }

    let mut reader = engine.read_session();
    let mut pending: Option<Pending> = None;
    let mut failed = false;
    // The open explicit transaction, if any: holding the guard *is*
    // holding the writer. Dropped (after rollback) on every exit path.
    let mut tx: Option<MutexGuard<'_, Session>> = None;

    loop {
        let req = match wire.recv() {
            Ok(req) => req,
            Err(e) => {
                // Disconnect (clean or not) mid-transaction: roll back
                // before the writer guard drops — the next writer must
                // never see this connection's uncommitted statements.
                if let Some(mut session) = tx.take() {
                    let _ = session.rollback();
                }
                return match e {
                    WireError::Closed => Ok(()),
                    e => Err(e),
                };
            }
        };

        match req {
            Request::Goodbye => {
                if let Some(mut session) = tx.take() {
                    let _ = session.rollback();
                }
                return Ok(());
            }
            Request::Reset => {
                // RESET always works: discard result, clear failure, roll
                // back an open transaction (releasing the writer).
                pending = None;
                failed = false;
                if let Some(mut session) = tx.take() {
                    let _ = session.rollback();
                }
                wire.send_flush(&success(vec![]))?;
            }
            _ if failed => {
                wire.send_flush(&Response::Ignored)?;
            }
            Request::Hello { .. } => {
                failed = true;
                wire.send_flush(&failure("Request.Invalid", "HELLO already completed"))?;
            }
            Request::Run { query, params } => {
                if pending.is_some() {
                    failed = true;
                    wire.send_flush(&failure(
                        "Request.Invalid",
                        "previous result not consumed (PULL or DISCARD first)",
                    ))?;
                    continue;
                }
                let params: Params = params.into_iter().collect();
                // Prepared once per distinct text on this connection's
                // cache; the same preparation serves whichever session
                // the statement is routed to.
                let outcome = reader
                    .prepare(&query)
                    .and_then(|stmt| match tx.as_deref_mut() {
                        Some(session) => run_on_writer(session, &stmt, &params),
                        None => run_autocommit(engine, &mut reader, &stmt, &params),
                    });
                match outcome {
                    Ok(out) => {
                        let meta = run_success_meta(&out);
                        pending = Some(Pending { rows: out.rows });
                        wire.send_flush(&success(meta))?;
                    }
                    Err(e) => {
                        // In-tx statement errors already rolled back to the
                        // statement mark; the transaction itself survives
                        // server-side but the client must RESET (which
                        // rolls it back) — Bolt's contract, and the only
                        // sane one under pipelining.
                        failed = true;
                        wire.send_flush(&engine_failure(&e))?;
                    }
                }
            }
            Request::Pull { n } => pull(&mut wire, &mut pending, n)?,
            Request::Discard => {
                pending = None;
                wire.send_flush(&success(vec![("has_more".to_string(), Value::Bool(false))]))?;
            }
            Request::Begin => {
                if tx.is_some() {
                    failed = true;
                    wire.send_flush(&failure("Request.Invalid", "transaction already open"))?;
                    continue;
                }
                if pending.is_some() {
                    failed = true;
                    wire.send_flush(&failure(
                        "Request.Invalid",
                        "previous result not consumed (PULL or DISCARD first)",
                    ))?;
                    continue;
                }
                // Blocks until the writer is free — explicit transactions
                // from concurrent connections serialize here.
                let mut session = engine.writer();
                match session.begin() {
                    Ok(()) => {
                        tx = Some(session);
                        wire.send_flush(&success(vec![]))?;
                    }
                    Err(e) => {
                        failed = true;
                        wire.send_flush(&engine_failure(&e))?;
                    }
                }
            }
            Request::Commit => match tx.take() {
                Some(mut session) => {
                    let fired_before = session.stats().fired;
                    match session.commit() {
                        Ok(()) => {
                            let mut meta = vec![(
                                "fired".to_string(),
                                Value::Int((session.stats().fired - fired_before) as i64),
                            )];
                            if session.is_durable() {
                                meta.push((
                                    "wal_seq".to_string(),
                                    Value::Int(session.wal_seq() as i64),
                                ));
                            }
                            drop(session);
                            wire.send_flush(&success(meta))?;
                        }
                        Err(e) => {
                            // ONCOMMIT / schema / durability veto: the
                            // session already rolled the transaction back.
                            drop(session);
                            failed = true;
                            wire.send_flush(&engine_failure(&e))?;
                        }
                    }
                }
                None => {
                    failed = true;
                    wire.send_flush(&failure("Request.Invalid", "no open transaction"))?;
                }
            },
            Request::Rollback => match tx.take() {
                Some(mut session) => {
                    let res = session.rollback();
                    drop(session);
                    match res {
                        Ok(()) => wire.send_flush(&success(vec![]))?,
                        Err(e) => {
                            failed = true;
                            wire.send_flush(&engine_failure(&e))?;
                        }
                    }
                }
                None => {
                    failed = true;
                    wire.send_flush(&failure("Request.Invalid", "no open transaction"))?;
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_results_flatten_to_rows() {
        let (cols, rows) = result_rows(ExecResult::TriggerCreated("T".into()));
        assert_eq!(cols, vec!["summary"]);
        assert_eq!(rows.len(), 1);
        let (cols, rows) = result_rows(ExecResult::Explain("line1\nline2".into()));
        assert_eq!(cols, vec!["plan"]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(error_code(&TriggerError::Session("x")), "Session.Error");
        assert_eq!(
            error_code(&TriggerError::UnknownTrigger("t".into())),
            "Trigger.Unknown"
        );
    }
}
