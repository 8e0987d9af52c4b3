//! `pg-benchmark repeat --sets 2 --runs 5`: run the same code in several
//! sets of several runs (run *i* of every set uses seed *i*), print each
//! bounded metric's median, quartiles and spread per set, and fail if
//!
//! * a metric's spread within a set exceeds its bound (`setup_s` exempt,
//!   as in the driver's rule), or
//! * two sets' medians differ by more than the bound, or
//! * an exact-count metric of the traced run differs between sets.
//!
//! Its output is committed as `BASELINE.md`: the evidence that the bounds
//! are confirmed, not guessed.

use crate::compare::{bounded_metrics, worsening};
use crate::daemon::{self, check_interrupt};
use crate::run;
use crate::spec::{Tier, METRICS};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

pub struct RepeatArgs {
    pub sets: usize,
    pub runs: usize,
    pub seconds: f64,
    /// Where the markdown report goes (besides standard output).
    pub out: Option<PathBuf>,
}

/// Counts that must repeat exactly for one seed: a change in one of these
/// is a change of semantics or format, never a speed-up.
pub const EXACT: [&str; 13] = [
    "triggers.fired_per_stmt",
    "triggers.suppressed_per_stmt",
    "triggers.useful_ratio",
    "triggers.max_depth",
    "triggers.commit_rounds_per_tx",
    "triggers.detached_runs",
    "wal.bytes_per_commit",
    "server.bytes_per_op",
    "cypher.rows_out_per_op",
    "graph.index_probes_per_read",
    "graph.store_nodes",
    "graph.store_rels",
    "graph.snapshot_bytes",
];

/// Run one workload in a child process and read its metrics back.
fn child_metrics(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: u8,
) -> Result<BTreeMap<String, f64>, String> {
    let doc = run::child_run(workload, seed, seconds, trace, true)?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{workload}: result has no metrics"))?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
}

fn summarize(values: &[f64]) -> Summary {
    let (q1, _, q3) = quartiles(values).unwrap_or((values[0], values[0], values[0]));
    let m = median(values);
    Summary {
        median: m,
        q1,
        q3,
        spread: if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() },
    }
}

pub fn repeat(args: &RepeatArgs) -> Result<bool, String> {
    if args.sets == 0 || args.runs < 2 {
        return Err("repeat needs at least one set of at least two runs".to_string());
    }
    // values[set][workload][metric] -> one value per run
    type Runs = BTreeMap<String, Vec<f64>>;
    let mut values: Vec<BTreeMap<&str, Runs>> = Vec::new();
    let mut exact: Vec<BTreeMap<&str, BTreeMap<String, f64>>> = Vec::new();
    for set in 0..args.sets {
        let mut per_workload: BTreeMap<&str, Runs> = BTreeMap::new();
        for run in 0..args.runs {
            // Workloads are interleaved within a run, so a slow spell of the
            // machine spreads over all of them instead of sinking one.
            for (workload, _) in WORKLOADS {
                check_interrupt()?;
                eprintln!("set {} run {} {workload}", set + 1, run + 1);
                let metrics = child_metrics(workload, run as u64 + 1, args.seconds, 0)?;
                let slot = per_workload.entry(workload).or_default();
                for (k, v) in metrics {
                    slot.entry(k).or_default().push(v);
                }
            }
        }
        values.push(per_workload);
        let mut traced = BTreeMap::new();
        for (workload, _) in WORKLOADS {
            check_interrupt()?;
            eprintln!("set {} traced {workload}", set + 1);
            traced.insert(workload, child_metrics(workload, 1, args.seconds, 1)?);
        }
        exact.push(traced);
    }

    // ---- report -----------------------------------------------------------------
    let mut md = String::new();
    let mut ok = true;
    let mut pooled = Map::new();
    writeln!(
        md,
        "# pg-benchmark repeat: {} set(s) x {} runs, {} s measured per run\n",
        args.sets, args.runs, args.seconds
    )
    .unwrap();
    writeln!(
        md,
        "Machine: {} core(s), PG_THREADS={}, PG_WAL_SYNC={}, {}.\n",
        daemon::pg_threads(),
        daemon::pg_threads(),
        daemon::SYNC_POLICY,
        run::rustc_version()
    )
    .unwrap();
    writeln!(
        md,
        "Run *i* of every set uses seed *i*. `spread` is (q3 - q1) / median over a set's runs,"
    )
    .unwrap();
    writeln!(
        md,
        "quartiles as Python's `statistics.quantiles(n=4)`. `vs set 1` is how much worse the"
    )
    .unwrap();
    writeln!(
        md,
        "set's median is than set 1's, in the metric's own direction.\n"
    )
    .unwrap();
    for (workload, _) in WORKLOADS {
        writeln!(md, "## {workload}\n").unwrap();
        writeln!(
            md,
            "| metric | unit | bound | set | median | q1 | q3 | spread | vs set 1 | verdict |"
        )
        .unwrap();
        writeln!(md, "|---|---|---|---|---|---|---|---|---|---|").unwrap();
        let mut workload_json = Map::new();
        for metric in bounded_metrics(workload) {
            let bound = metric.bound.unwrap_or(0.0);
            let mut first: Option<f64> = None;
            let mut all: Vec<f64> = Vec::new();
            for (set, per_workload) in values.iter().enumerate() {
                let Some(runs) = per_workload.get(workload).and_then(|m| m.get(metric.name)) else {
                    continue;
                };
                all.extend(runs);
                let s = summarize(runs);
                let base = *first.get_or_insert(s.median);
                let drift = worsening(metric, base, s.median);
                // The driver exempts set-up time from the spread rule.
                let wide = s.spread > bound && metric.name != "setup_s";
                let differ = drift.abs() > bound;
                ok &= !(wide || differ);
                let mut verdict = vec![if wide {
                    "SPREAD > BOUND"
                } else if s.spread * 3.0 <= bound || bound == 0.0 {
                    "steady"
                } else {
                    "within bound"
                }];
                if differ {
                    verdict.push("SETS DIFFER");
                }
                writeln!(
                    md,
                    "| {} | {} | {:.0}% | {} | {:.4} | {:.4} | {:.4} | {:.1}% | {:+.1}% | {} |",
                    metric.name,
                    metric.unit,
                    bound * 100.0,
                    set + 1,
                    s.median,
                    s.q1,
                    s.q3,
                    s.spread * 100.0,
                    drift * 100.0,
                    verdict.join(", ")
                )
                .unwrap();
            }
            if !all.is_empty() {
                let s = summarize(&all);
                workload_json.insert(
                    metric.name.to_string(),
                    json!({"median": s.median, "q1": s.q1, "q3": s.q3, "spread": s.spread, "values": all}),
                );
            }
        }
        pooled.insert(
            workload.to_string(),
            json!({"metrics": Value::Object(workload_json)}),
        );

        // The traced run's per-layer table, seed 1, one column per set.
        writeln!(
            md,
            "\nPer layer (traced run, seed 1; one column per set). Exact counts must repeat:\n"
        )
        .unwrap();
        writeln!(
            md,
            "| layer metric | unit | {} | exact |",
            (1..=args.sets)
                .map(|s| format!("set {s}"))
                .collect::<Vec<_>>()
                .join(" | ")
        )
        .unwrap();
        writeln!(md, "|---|---|{}---|", "---|".repeat(args.sets)).unwrap();
        for metric in METRICS
            .iter()
            .filter(|m| m.tier == Tier::Layer && m.applies_to(workload))
        {
            let per_set: Vec<Option<f64>> = exact
                .iter()
                .map(|t| t[workload].get(metric.name).copied())
                .collect();
            if per_set.iter().all(Option::is_none) {
                continue;
            }
            let note = if !EXACT.contains(&metric.name) {
                ""
            } else if per_set.windows(2).all(|w| w[0] == w[1]) {
                "identical"
            } else {
                ok = false;
                "**DIFFERS**"
            };
            let shown: Vec<String> = per_set
                .iter()
                .map(|v| v.map_or("-".into(), |v| format!("{v:.4}")))
                .collect();
            writeln!(
                md,
                "| {} | {} | {} | {note} |",
                metric.name,
                metric.unit,
                shown.join(" | ")
            )
            .unwrap();
        }
        writeln!(md).unwrap();
    }
    writeln!(
        md,
        "Result: {}",
        if ok {
            "every metric within its bound; sets agree; exact counts identical"
        } else {
            "FAILED (see capitalised verdicts above)"
        }
    )
    .unwrap();

    print!("{md}");
    if let Some(path) = &args.out {
        std::fs::write(path, &md).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let doc = json!({
        "benchmark": "pg-benchmark",
        "sets": args.sets,
        "runs": args.runs,
        "seconds": args.seconds,
        "workloads": Value::Object(pooled),
    });
    let path = daemon::out_dir().join("repeat.json");
    std::fs::write(&path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("pooled medians for `compare`: {}", path.display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_median_quartiles_and_spread() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.median, s.q1, s.q3, s.spread), (5.5, 2.75, 8.25, 1.0));
        let flat = summarize(&[0.0, 0.0]);
        assert_eq!(flat.spread, 0.0);
    }

    #[test]
    fn exact_metrics_are_declared() {
        for name in EXACT {
            assert!(crate::spec::metric(name).is_some(), "{name}");
        }
    }
}
