//! The per-layer budget, measured from outside: the statements a workload
//! generated are replayed against in-process **twins** and every call
//! into a layer's public functions is timed. No library crate gains a
//! timestamp; all spans are recorded here.
//!
//! Twins of one database, all at the same state before each statement:
//!
//! * `full` — the workload's own configuration: triggers armed, durable
//!   if the workload is;
//! * `base` — `full` without triggers (same durability); `full − base` on
//!   the same statement is trigger dispatch;
//! * `mem` — `base` in memory (when the workload is durable);
//!   `base − mem` on commit is the WAL.
//!
//! Every statement runs on every twin so their states stay in step; a
//! deterministic 1-in-N sample of them is timed, and a metric is the
//! median over that sample.

use crate::daemon::TempDir;
use crate::model::{Kind, Stmt};
use crate::span::Tracer;
use crate::stats::median;
use pg_cypher::expr::EvalCtx;
use pg_cypher::{lower_query, parse_query, run_read_only, Query};
use pg_graph::Value;
use pg_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use pg_triggers::{EngineConfig, ReadSession, Session, WalOptions};
use std::collections::BTreeMap;
use std::time::Instant;

/// How to build one database of a workload in process.
pub struct TwinDb {
    /// Data and indexes — everything except triggers.
    pub prepare: Box<dyn Fn(&mut Session)>,
    /// Trigger DDL, installed in order on the `full` twin only.
    pub triggers: Vec<String>,
}

pub struct ProbePlan {
    pub db: TwinDb,
    pub durable: bool,
    /// Whether the workload's statements travel over the wire (frame
    /// codec, wire overhead and the unattributed remainder apply).
    pub wire: bool,
    pub primary: Kind,
    /// The statements in execution order.
    pub stream: Vec<Stmt>,
    /// Time one statement in this many.
    pub sample_every: usize,
    /// Median client latency of the primary kind in the traced rounds.
    pub wire_us: f64,
}

/// Layer metrics by name. Metrics that do not apply to a workload are
/// absent here and reported as 0.
#[derive(Debug, Default)]
pub struct LayerReport {
    pub metrics: BTreeMap<&'static str, f64>,
}

struct Twins {
    full: Session,
    full_reader: ReadSession,
    /// The trigger-free twins exist only when the stream writes.
    base: Option<Session>,
    mem: Option<Session>,
    /// Held so commits on the trigger-free twins publish snapshots, as
    /// they do on a server with connections open.
    _readers: Vec<ReadSession>,
    _dirs: Vec<TempDir>,
}

fn open(db: &TwinDb, durable: bool, dirs: &mut Vec<TempDir>) -> Result<Session, String> {
    let mut s = if durable {
        let dir = TempDir::new("twin")?;
        let wal = WalOptions::from_env().map_err(|e| e.to_string())?;
        let (s, _) = Session::open_durable(dir.path(), EngineConfig::default(), wal)
            .map_err(|e| format!("twin open: {e}"))?;
        dirs.push(dir);
        s
    } else {
        Session::new()
    };
    (db.prepare)(&mut s);
    if durable {
        // Bulk loads bypass the WAL; a checkpoint makes them durable, as
        // the workloads' own set-up does.
        s.checkpoint()
            .map_err(|e| format!("twin checkpoint: {e}"))?;
    }
    Ok(s)
}

impl Twins {
    fn build(
        db: &TwinDb,
        durable: bool,
        writes: bool,
        install_us: &mut Vec<f64>,
    ) -> Result<Twins, String> {
        let mut dirs = Vec::new();
        let mut full = open(db, durable, &mut dirs)?;
        for ddl in &db.triggers {
            let t = Instant::now();
            full.install(ddl)
                .map_err(|e| format!("twin install: {e}"))?;
            install_us.push(us(t));
        }
        let (mut base, mut mem) = (None, None);
        if writes {
            base = Some(open(db, durable, &mut dirs)?);
            if durable {
                mem = Some(open(db, false, &mut dirs)?);
            }
        }
        let full_reader = ReadSession::new(full.reader_handle());
        let readers = [base.as_mut(), mem.as_mut()]
            .into_iter()
            .flatten()
            .map(|s| ReadSession::new(s.reader_handle()))
            .collect();
        Ok(Twins {
            full,
            full_reader,
            base,
            mem,
            _readers: readers,
            _dirs: dirs,
        })
    }
}

/// What one sampled statement cost in each layer (µs; exact counts).
#[derive(Debug, Default, Clone)]
struct Sample {
    parse: f64,
    plan: f64,
    /// Statement execution without triggers and without commit.
    exec: f64,
    /// In-process total a caller of `Session::execute` /
    /// `ReadSession::run` waits for (parse included).
    in_process: f64,
    dispatch: f64,
    commit_publish: f64,
    wal_commit: f64,
    refresh: f64,
    codec: f64,
    bytes: f64,
    /// Requests the client sends for the statement (`RUN`, `PULL`).
    requests: f64,
    rows: f64,
    probes: f64,
    activations: f64,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

fn between(a: Instant, b: Instant) -> f64 {
    (b - a).as_nanos() as f64 / 1e3
}

/// Span recording for one replayed statement: layer spans hang under a
/// `twin.stmt` root; nothing is recorded for unsampled statements.
struct StmtSpans<'a> {
    tracer: &'a mut Tracer,
    stmt_id: u64,
    on: bool,
    start: Instant,
}

impl StmtSpans<'_> {
    fn layer(&mut self, name: &'static str, a: Instant, b: Instant) {
        if self.on {
            self.tracer
                .push(self.stmt_id, name, Some("twin.stmt"), a, b);
        }
    }

    fn finish(self) {
        if self.on {
            self.tracer
                .push(self.stmt_id, "twin.stmt", None, self.start, Instant::now());
        }
    }
}

/// Run `stmt` on a trigger-free twin inside an explicit transaction, so
/// execution and commit are timed apart. Returns `(exec µs, commit µs)`.
fn exec_then_commit(
    s: &mut Session,
    ast: &Query,
    stmt: &Stmt,
    spans: &mut StmtSpans<'_>,
    names: (&'static str, &'static str),
) -> Result<(f64, f64), String> {
    let params = stmt.params_map();
    s.begin().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    s.run_query_ast(ast, Vec::new(), &params)
        .map_err(|e| format!("twin stmt {}: {e}", stmt.id))?;
    let t1 = Instant::now();
    s.commit()
        .map_err(|e| format!("twin commit {}: {e}", stmt.id))?;
    let t2 = Instant::now();
    spans.layer(names.0, t0, t1);
    spans.layer(names.1, t1, t2);
    Ok((between(t0, t1), between(t1, t2)))
}

/// Encode and decode every frame of one statement's exchange, as client
/// and server do between them. Returns `(µs, bytes on the wire, requests)`.
fn codec_round(stmt: &Stmt, columns: &[String], rows: &[Vec<Value>]) -> (f64, f64, f64) {
    let requests = [
        Request::Run {
            query: stmt.text.clone(),
            params: stmt.params.clone(),
        },
        Request::Pull { n: u64::MAX },
    ];
    let mut responses = vec![Response::Success {
        meta: vec![
            (
                "fields".to_string(),
                Value::list(columns.iter().map(|c| Value::str(c.as_str()))),
            ),
            ("fired".to_string(), Value::Int(0)),
            ("epoch".to_string(), Value::Int(0)),
        ],
    }];
    responses.extend(rows.iter().map(|values| Response::Record {
        values: values.clone(),
    }));
    responses.push(Response::Success {
        meta: vec![("has_more".to_string(), Value::Bool(false))],
    });
    let (mut bytes, mut buf) = (0usize, Vec::new());
    let t = Instant::now();
    for req in &requests {
        buf.clear();
        encode_request(req, &mut buf);
        bytes += 4 + buf.len();
        std::hint::black_box(decode_request(&buf).expect("own request decodes"));
    }
    for resp in &responses {
        buf.clear();
        encode_response(resp, &mut buf);
        bytes += 4 + buf.len();
        std::hint::black_box(decode_response(&buf).expect("own response decodes"));
    }
    (us(t), bytes as f64, requests.len() as f64)
}

fn probe_write(
    tw: &mut Twins,
    stmt: &Stmt,
    sampled: bool,
    wire: bool,
    tracer: &mut Tracer,
) -> Result<Option<Sample>, String> {
    let params = stmt.params_map();
    let mut spans = StmtSpans {
        tracer,
        stmt_id: stmt.id,
        on: sampled,
        start: Instant::now(),
    };
    let t = Instant::now();
    let ast = parse_query(&stmt.text).map_err(|e| format!("parse `{}`: {e}", stmt.text))?;
    let parsed = Instant::now();
    spans.layer("cypher.parse", t, parsed);
    let mut sample = Sample {
        parse: between(t, parsed),
        ..Sample::default()
    };
    if sampled {
        let ctx = EvalCtx::new(tw.full.graph(), &params, tw.full.now_ms());
        std::hint::black_box(lower_query(&ctx, &ast).map_err(|e| format!("plan: {e}"))?);
        let planned = Instant::now();
        spans.layer("cypher.plan", parsed, planned);
        sample.plan = between(parsed, planned);
    }

    // full: the statement as the workload runs it (auto-commit, triggers).
    let before = tw.full.stats();
    let t = Instant::now();
    let out = tw
        .full
        .run_query_ast(&ast, Vec::new(), &params)
        .map_err(|e| format!("twin stmt {} `{}`: {e}", stmt.id, stmt.text))?;
    let ran = Instant::now();
    spans.layer("engine.statement", t, ran);
    let full_us = between(t, ran);
    let after = tw.full.stats();
    sample.activations =
        ((after.fired - before.fired) + (after.suppressed - before.suppressed)) as f64;
    sample.in_process = sample.parse + full_us;
    sample.rows = out.rows.len() as f64;

    tw.full_reader.refresh();
    let refreshed = Instant::now();
    spans.layer("graph.snapshot_refresh", ran, refreshed);
    sample.refresh = between(ran, refreshed);

    // base: same statement, no triggers.
    let base = tw.base.as_mut().expect("write streams build the base twin");
    let (exec, base_commit) =
        exec_then_commit(base, &ast, stmt, &mut spans, ("cypher.exec", "base.commit"))?;
    sample.exec = exec;
    sample.dispatch = full_us - (exec + base_commit);
    // mem: base without the WAL.
    sample.commit_publish = base_commit;
    if let Some(mem) = &mut tw.mem {
        let names = ("mem.exec", "graph.commit_publish");
        let (_, c) = exec_then_commit(mem, &ast, stmt, &mut spans, names)?;
        sample.wal_commit = base_commit - c;
        sample.commit_publish = c;
    }
    if sampled && wire {
        let t = Instant::now();
        (sample.codec, sample.bytes, sample.requests) = codec_round(stmt, &out.columns, &out.rows);
        spans.layer("server.frame_codec", t, Instant::now());
    }
    spans.finish();
    Ok(sampled.then_some(sample))
}

fn probe_read(
    tw: &mut Twins,
    stmt: &Stmt,
    wire: bool,
    tracer: &mut Tracer,
) -> Result<Sample, String> {
    let params = stmt.params_map();
    let start = Instant::now();
    let mut spans = StmtSpans {
        tracer,
        stmt_id: stmt.id,
        on: true,
        start,
    };
    // What the server does for an auto-commit read: re-pin, then run.
    tw.full_reader.refresh();
    let refreshed = Instant::now();
    spans.layer("graph.snapshot_refresh", start, refreshed);
    let ast = parse_query(&stmt.text).map_err(|e| format!("parse `{}`: {e}", stmt.text))?;
    let parsed = Instant::now();
    spans.layer("cypher.parse", refreshed, parsed);
    let snapshot = tw.full_reader.snapshot();
    let ctx = EvalCtx::new(snapshot, &params, 0);
    std::hint::black_box(lower_query(&ctx, &ast).map_err(|e| format!("plan: {e}"))?);
    let planned = Instant::now();
    spans.layer("cypher.plan", parsed, planned);
    snapshot.reset_index_probes();
    let t = Instant::now();
    let out = run_read_only(snapshot, &ast, Vec::new(), &params, 0)
        .map_err(|e| format!("twin read {} `{}`: {e}", stmt.id, stmt.text))?;
    let ran = Instant::now();
    spans.layer("cypher.exec", t, ran);
    let probes = snapshot.index_probes();
    let mut sample = Sample {
        refresh: between(start, refreshed),
        parse: between(refreshed, parsed),
        plan: between(parsed, planned),
        exec: between(t, ran),
        rows: out.rows.len() as f64,
        probes: (probes.materializing + probes.counting + probes.ordered) as f64,
        ..Sample::default()
    };
    sample.in_process = sample.refresh + sample.parse + sample.exec;
    if let Some(want) = &stmt.expect_single {
        if out.single() != Some(want) {
            return Err(format!(
                "twin read {} `{}`: got {:?}, want {want:?}",
                stmt.id,
                stmt.text,
                out.single()
            ));
        }
    }
    if wire {
        let t = Instant::now();
        (sample.codec, sample.bytes, sample.requests) = codec_round(stmt, &out.columns, &out.rows);
        spans.layer("server.frame_codec", t, Instant::now());
    }
    spans.finish();
    Ok(sample)
}

/// Replay `plan.stream` on the twins and reduce the samples to metrics.
pub fn probe(plan: &ProbePlan, tracer: &mut Tracer) -> Result<LayerReport, String> {
    let mut install_us = Vec::new();
    let has_writes = plan.stream.iter().any(|s| s.kind == Kind::Write);
    let mut tw = Twins::build(&plan.db, plan.durable, has_writes, &mut install_us)?;

    let every = plan.sample_every.max(1) as u64;
    let (mut writes, mut reads): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    let (mut n_writes, mut n_reads) = (0u64, 0u64);
    for stmt in &plan.stream {
        if (n_writes + n_reads) % 256 == 0 {
            crate::daemon::check_interrupt()?;
        }
        match stmt.kind {
            Kind::Write => {
                let sampled = n_writes % every == 0;
                n_writes += 1;
                if let Some(s) = probe_write(&mut tw, stmt, sampled, plan.wire, tracer)? {
                    writes.push(s);
                }
            }
            Kind::Read => {
                // Reads change nothing, so only sampled ones run. In a
                // write stream the reads are already a sparse sample.
                let sampled = plan.primary == Kind::Write || n_reads % every == 0;
                n_reads += 1;
                if sampled {
                    reads.push(probe_read(&mut tw, stmt, plan.wire, tracer)?);
                }
            }
        }
    }
    // The twins auto-commit every statement.
    let n_commits = n_writes;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let primary = match plan.primary {
        Kind::Write => &writes,
        Kind::Read => &reads,
    };
    let med = |samples: &[Sample], f: fn(&Sample) -> f64| {
        median(&samples.iter().map(f).collect::<Vec<_>>())
    };
    m.insert("cypher.parse_us", med(primary, |s| s.parse));
    m.insert("cypher.plan_us", med(primary, |s| s.plan));
    m.insert("cypher.exec_us", med(primary, |s| s.exec));
    m.insert("cypher.rows_out_per_op", mean(primary, |s| s.rows));
    m.insert("graph.index_probes_per_read", mean(&reads, |s| s.probes));
    if plan.wire {
        m.insert("server.frame_codec_us", med(primary, |s| s.codec));
        m.insert("server.bytes_per_op", mean(primary, |s| s.bytes));
        m.insert("server.round_trips_per_op", mean(primary, |s| s.requests));
    }
    if !writes.is_empty() {
        m.insert(
            "graph.commit_publish_us",
            med(&writes, |s| s.commit_publish),
        );
        m.insert("graph.snapshot_refresh_us", med(&writes, |s| s.refresh));
        m.insert("triggers.dispatch_us", med(&writes, |s| s.dispatch));
        let activations: f64 = writes.iter().map(|s| s.activations).sum();
        let dispatch: f64 = writes.iter().map(|s| s.dispatch).sum();
        if activations > 0.0 {
            m.insert("triggers.us_per_activation", dispatch / activations);
        }
        if plan.durable {
            m.insert("wal.commit_overhead_us", med(&writes, |s| s.wal_commit));
        }
    } else if !reads.is_empty() {
        m.insert("graph.snapshot_refresh_us", med(&reads, |s| s.refresh));
    }

    // Exact counts from the full twin.
    let stats = tw.full.stats();
    let graph = tw.full.graph();
    m.insert("graph.store_nodes", graph.node_count() as f64);
    m.insert("graph.store_rels", graph.rel_count() as f64);
    m.insert(
        "graph.snapshot_bytes",
        pg_wal::encode_snapshot(graph, 0).len() as f64,
    );
    if n_writes > 0 {
        let per = |v: u64| v as f64 / n_writes as f64;
        m.insert("triggers.fired_per_stmt", per(stats.fired));
        m.insert("triggers.suppressed_per_stmt", per(stats.suppressed));
        if stats.fired + stats.suppressed > 0 {
            m.insert(
                "triggers.useful_ratio",
                stats.fired as f64 / (stats.fired + stats.suppressed) as f64,
            );
        }
        m.insert("triggers.max_depth", stats.max_depth_seen as f64);
        m.insert(
            "triggers.commit_rounds_per_tx",
            stats.commit_rounds as f64 / n_commits as f64,
        );
        m.insert("triggers.detached_runs", stats.detached_runs as f64);
        if let Some(d) = tw.full.durable() {
            let wal_bytes = d.wal_len().map_err(|e| e.to_string())?;
            m.insert("wal.bytes_per_commit", wal_bytes as f64 / n_commits as f64);
        }
    }
    if !install_us.is_empty() {
        m.insert("triggers.install_us", median(&install_us));
        translators(&tw, &mut m);
    }

    if plan.wire && plan.wire_us > 0.0 {
        let in_process = med(primary, |s| s.in_process);
        m.insert("server.wire_overhead_us", plan.wire_us - in_process);
        // `exec` already contains the executor's own planning, so
        // `cypher.plan_us` (the EXPLAIN-side mirror) is not added again.
        let attributed: f64 = [
            "server.frame_codec_us",
            "cypher.parse_us",
            "cypher.exec_us",
            "triggers.dispatch_us",
            "graph.commit_publish_us",
            "wal.commit_overhead_us",
        ]
        .iter()
        .filter_map(|k| m.get(k))
        .sum();
        m.insert("server.unattributed_us", plan.wire_us - attributed);
        m.insert(
            "server.unattributed_share",
            (plan.wire_us - attributed) / plan.wire_us,
        );
    }

    if plan.durable {
        recovery(&mut tw, &mut m)?;
    }
    Ok(LayerReport { metrics: m })
}

fn mean(samples: &[Sample], f: fn(&Sample) -> f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(f).sum::<f64>() / samples.len() as f64
}

/// The §5 translators over the installed trigger set (µs per trigger).
fn translators(tw: &Twins, m: &mut BTreeMap<&'static str, f64>) {
    let specs: Vec<_> = tw.full.catalog().all().map(|t| t.spec.clone()).collect();
    let (mut apoc, mut memgraph) = (Vec::new(), Vec::new());
    for spec in &specs {
        let t = Instant::now();
        let _ = std::hint::black_box(pg_apoc::translate(spec));
        apoc.push(us(t));
        let t = Instant::now();
        let _ = std::hint::black_box(pg_memgraph::translate(spec));
        memgraph.push(us(t));
    }
    m.insert("apoc.translate_us_per_trigger", median(&apoc));
    m.insert("memgraph.translate_us_per_trigger", median(&memgraph));
}

/// Recovery of the durable `full` twin's directory: from the log alone,
/// then a checkpoint (a foreground stall: it holds the writer), then from
/// the snapshot.
fn recovery(tw: &mut Twins, m: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let Some(dir) = tw.full.durable().map(|d| d.dir().to_path_buf()) else {
        return Ok(());
    };
    tw.full.wal_flush().map_err(|e| e.to_string())?;
    // Release the directory lock by replacing the session.
    tw.full = Session::new();
    let reopen = || {
        let wal = WalOptions::from_env().map_err(|e| e.to_string())?;
        let t = Instant::now();
        let (s, _) = Session::open_durable(&dir, EngineConfig::default(), wal)
            .map_err(|e| format!("recover twin: {e}"))?;
        Ok::<_, String>((s, t.elapsed().as_secs_f64()))
    };
    let (mut s, replay_s) = reopen()?;
    m.insert("wal.recover_replay_s", replay_s);
    let t = Instant::now();
    s.checkpoint()
        .map_err(|e| format!("checkpoint twin: {e}"))?;
    m.insert("wal.checkpoint_s", t.elapsed().as_secs_f64());
    drop(s);
    let (_, snapshot_s) = reopen()?;
    m.insert("wal.recover_snapshot_s", snapshot_s);
    Ok(())
}
