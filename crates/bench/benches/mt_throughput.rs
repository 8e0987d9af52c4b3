//! Multi-threaded throughput: N snapshot readers against a live,
//! trigger-firing writer.
//!
//! Three measurements, emitted as `BENCH_mt_throughput.json`
//! ([`pg_bench::write_report`]: the repo root in full mode):
//!
//! 1. **Writer, exclusive mode** — no reader handle ever created, so the
//!    store root stays unshared and copy-on-write never copies.
//! 2. **Writer, publishing mode** — a reader handle exists, so every
//!    commit publishes its epoch and first-touch mutations path-copy.
//!    The copy-on-write tax is paid once per *commit boundary* (the first
//!    touch of each store path after a publication re-shares the trees),
//!    so it amortizes over transaction size. Both granularities are
//!    measured and reported: realistic ingest transactions
//!    (`TX_BATCH` statements per commit — the degradation bar of ≤ 20%
//!    versus exclusive mode applies here) and the single-statement
//!    auto-commit floor, where every statement pays the full tax
//!    (`autocommit_degradation_pct`, same ≤ 20% bar — held by the
//!    tail-buffered extent sets, which turn the per-statement label/
//!    type-index spine copies into an `Arc<Vec>` insert).
//! 3. **Reader scaling** — 1 reader vs 8 readers running indexed range
//!    counts over pinned snapshots (re-pinning every query) while the
//!    writer fires an `AFTER` trigger cascade per statement. The bar is
//!    ≥ 6× aggregate throughput at 8 readers — asserted only when the
//!    machine actually has that many cores; the JSON records the
//!    measured ratio and core count either way.
//!
//! Quick mode for CI smoke: `cargo bench --bench mt_throughput -- --test`
//! shrinks sizes and skips the acceptance assertions (noise-proof);
//! the `concurrency` CI job runs the full mode and archives the JSON.

use pg_triggers::{IndexDef, ReadSession, Session};
use serde_json::json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

/// A session with `preload` indexed `Item` nodes and an AFTER cascade on
/// every `:Job` insert — the writer's per-statement trigger work.
fn trigger_session(preload: usize) -> Session {
    let mut s = Session::new();
    s.install(
        "CREATE TRIGGER audit AFTER CREATE ON 'Job' FOR EACH NODE
         BEGIN CREATE (:Audit {of: NEW.i}) END",
    )
    .unwrap();
    s.create_index(&IndexDef::node("Item", &["k"])).unwrap();
    let g = s.graph_mut();
    for i in 0..preload {
        let props: pg_graph::PropertyMap = [("k".to_string(), pg_graph::Value::Int(i as i64))]
            .into_iter()
            .collect();
        g.create_node(["Item"], props).unwrap();
    }
    s
}

/// A realistic multi-property ingest statement (each fires the `audit`
/// cascade).
fn ingest_stmt(i: usize) -> String {
    format!("CREATE (:Job {{i: {i}, src: 'loader', prio: {}}})", i % 7)
}

/// Statements per ingest transaction for the transactional writer shape.
const TX_BATCH: usize = 8;

/// One timed burst: `statements` trigger-firing inserts against a fresh
/// session (each statement = 1 `:Job` insert + 1 cascaded `:Audit`
/// insert), in exclusive or publishing mode. `batch` = 1 auto-commits
/// every statement; `batch` > 1 groups that many statements per explicit
/// transaction.
fn writer_burst(preload: usize, statements: usize, batch: usize, publish: bool) -> f64 {
    let mut s = trigger_session(preload);
    let _handle = publish.then(|| s.reader_handle());
    let t0 = Instant::now();
    for i in 0..statements {
        if batch > 1 && i.is_multiple_of(batch) {
            s.begin().unwrap();
        }
        s.run(&ingest_stmt(i)).unwrap();
        if batch > 1 && (i + 1).is_multiple_of(batch) {
            s.commit().unwrap();
        }
    }
    if batch > 1 && !statements.is_multiple_of(batch) {
        s.commit().unwrap();
    }
    statements as f64 / t0.elapsed().as_secs_f64()
}

/// Writer throughput (statements/second) as `(exclusive, publishing)`.
/// The two modes are interleaved burst-by-burst so scheduler noise hits
/// both alike, and each reports its best burst — on a loaded shared box
/// the best window is the least-perturbed measurement.
fn writer_stmts_per_s(
    preload: usize,
    statements: usize,
    batch: usize,
    repeats: usize,
) -> (f64, f64) {
    let (mut exclusive, mut publishing) = (0.0f64, 0.0f64);
    for _ in 0..repeats {
        exclusive = exclusive.max(writer_burst(preload, statements, batch, false));
        publishing = publishing.max(writer_burst(preload, statements, batch, true));
    }
    (exclusive, publishing)
}

/// `readers` threads hammering pinned snapshots (re-pinned per query)
/// while this thread's writer fires trigger cascades for `duration`.
/// Returns (aggregate reader queries/s, writer statements/s).
fn mixed_load(preload: usize, readers: usize, duration: Duration) -> (f64, f64) {
    let mut s = trigger_session(preload);
    let handle = s.reader_handle();
    let lo = (preload / 4) as i64;
    let hi = (preload / 2) as i64;
    let query = format!("MATCH (i:Item) WHERE i.k >= {lo} AND i.k < {hi} RETURN count(*) AS n");
    let expect = hi - lo;

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let joins: Vec<_> = (0..readers)
            .map(|_| {
                let h = handle.clone();
                let stop = &stop;
                let query = query.as_str();
                scope.spawn(move || {
                    let mut reader = ReadSession::new(h);
                    let mut queries = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        reader.refresh();
                        let n = reader
                            .run(query)
                            .unwrap()
                            .single()
                            .and_then(|v| v.as_i64())
                            .unwrap();
                        assert_eq!(n, expect, "snapshot read returned a wrong count");
                        queries += 1;
                    }
                    queries
                })
            })
            .collect();

        let t0 = Instant::now();
        let mut stmts = 0u64;
        while t0.elapsed() < duration {
            s.run(&ingest_stmt(stmts as usize)).unwrap();
            stmts += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let elapsed = t0.elapsed().as_secs_f64();
        let total: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        (total as f64 / elapsed, stmts as f64 / elapsed)
    })
}

fn main() {
    let quick = quick_mode();
    // Bursts must be long enough that a ~1ms scheduler hiccup cannot
    // move the exclusive/publishing ratio by a percentage point: 6000
    // statements ≈ 60ms per burst at the measured rates.
    let (preload, statements, repeats, dur, readers_hi) = if quick {
        (2_000, 200, 1, Duration::from_millis(150), 4)
    } else {
        (100_000, 6_000, 7, Duration::from_millis(1500), 8)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (exclusive, publishing) = writer_stmts_per_s(preload, statements, TX_BATCH, repeats);
    let degradation_pct = (1.0 - publishing / exclusive) * 100.0;
    let (ac_exclusive, ac_publishing) = writer_stmts_per_s(preload, statements, 1, repeats);
    let ac_degradation_pct = (1.0 - ac_publishing / ac_exclusive) * 100.0;

    let (single_qps, writer_during_single) = mixed_load(preload, 1, dur);
    let (multi_qps, writer_during_multi) = mixed_load(preload, readers_hi, dur);
    let scaling = multi_qps / single_qps;
    // The scaling bar needs real parallelism: readers plus the writer
    // each want a core.
    let scaling_measurable = cores > readers_hi;

    let writer_report = json!({
        "tx_batch": TX_BATCH,
        "exclusive_stmts_per_s": exclusive,
        "publishing_stmts_per_s": publishing,
        "degradation_pct": degradation_pct,
        "bar_degradation_pct_max": 20.0,
        "autocommit_exclusive_stmts_per_s": ac_exclusive,
        "autocommit_publishing_stmts_per_s": ac_publishing,
        "autocommit_degradation_pct": ac_degradation_pct,
        "bar_autocommit_degradation_pct_max": 20.0,
    });
    let reader_report = json!({
        "single_reader_qps": single_qps,
        "multi_reader_qps": multi_qps,
        "multi_readers": readers_hi,
        "scaling_x": scaling,
        "bar_scaling_x_min": 6.0,
        "scaling_measurable": scaling_measurable,
        "writer_stmts_per_s_during_single": writer_during_single,
        "writer_stmts_per_s_during_multi": writer_during_multi,
    });
    let report = json!({
        "bench": "mt_throughput",
        "mode": if quick { "quick" } else { "full" },
        "cores": cores,
        "preload_items": preload,
        "writer": writer_report,
        "readers": reader_report,
    });
    pg_bench::write_report("mt_throughput", quick, &report);

    if !quick {
        assert!(
            degradation_pct <= 20.0,
            "publishing-mode writer degraded {degradation_pct:.1}% (> 20% bar): \
             {publishing:.0} vs {exclusive:.0} stmts/s in {TX_BATCH}-statement transactions"
        );
        assert!(
            ac_degradation_pct <= 20.0,
            "auto-commit writer degraded {ac_degradation_pct:.1}% (> 20% bar): \
             {ac_publishing:.0} vs {ac_exclusive:.0} stmts/s single-statement"
        );
        if scaling_measurable {
            assert!(
                scaling >= 6.0,
                "{readers_hi} readers scaled only {scaling:.2}x (>= 6x bar) on {cores} cores"
            );
        } else {
            eprintln!(
                "note: scaling bar not asserted — {cores} core(s) < {} needed",
                readers_hi + 1
            );
        }
    }
}
