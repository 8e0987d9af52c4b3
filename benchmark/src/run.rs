//! `pg-benchmark run`: one workload in this process (`--workload`), or
//! every workload each in a fresh child process.

use crate::daemon::{self, check_interrupt};
use crate::model::{Kind, Round};
use crate::spec::{Better, Tier, METRICS};
use crate::stats::{median, percentile, sorted};
use crate::workloads::{self, WORKLOADS};
use crate::{json, span};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the all-workloads run writes its combined result.
    pub out: Option<PathBuf>,
}

/// No run may outlast this, whatever `--seconds` says (the driver allows
/// 180 s per run).
const WALL_LIMIT_S: f64 = 120.0;

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
struct Measured {
    value: f64,
    n: usize,
}

pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit being measured; the driver's checkout is not a git
/// repository, so this is `unknown` there.
fn git_commit() -> String {
    Command::new("git")
        .arg("-C")
        .arg(daemon::bench_dir())
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn env_stanza(seed: u64, stream_hash: u64, op_counts: &[(&'static str, u64)]) -> Value {
    let mut counts = Map::new();
    for (k, v) in op_counts {
        counts.insert(k.to_string(), json!(*v));
    }
    json!({
        "cores": daemon::pg_threads(),
        "commit": git_commit(),
        "rustc": rustc_version(),
        "profile": "release",
        "sync_policy": daemon::SYNC_POLICY,
        "pg_threads": daemon::pg_threads(),
        "seed": seed,
        "stream_hash": format!("{stream_hash:016x}"),
        "op_counts": Value::Object(counts),
    })
}

fn round_percentile(r: &Round, kind: Kind, p: f64) -> Option<f64> {
    let v = r.samples.of(kind);
    (!v.is_empty()).then(|| percentile(&sorted(v), p))
}

/// The best round's figure: the highest for `Higher`, the lowest for
/// `Lower`.
///
/// Rounds are identical work, and on a shared machine the noise is one
/// sided: other tenants slow a round down for seconds at a time and
/// never speed one up (a 70-round in-process run splits into a tight
/// mode within 1.5% of its best and a slow mode 15-20% below it). Over
/// 16-round windows of that run the median moves by 16%, the best round
/// by 1%. So the best round is the engine at rest, and it is what two
/// commits can be compared on.
fn best_of(
    rounds: &[&Round],
    better: Better,
    f: impl Fn(&Round) -> Option<f64>,
) -> Option<Measured> {
    let values: Vec<f64> = rounds.iter().filter_map(|r| f(r)).collect();
    let pick = match better {
        Better::Higher => f64::max,
        Better::Lower => f64::min,
    };
    values.iter().copied().reduce(pick).map(|value| Measured {
        value,
        n: values.len(),
    })
}

fn throughput(r: &Round) -> Option<f64> {
    Some(r.correct_ops() as f64 / r.measured_s)
}

/// Reduce rounds to the end-to-end tiers: each metric is its best round's
/// figure (memory, which no neighbour inflates, is the median).
fn end_to_end(rounds: &[&Round], primary: Kind, own_rss: bool) -> BTreeMap<&'static str, Measured> {
    let mut m = BTreeMap::new();
    let mut put = |name: &'static str, v: Option<Measured>| {
        if let Some(v) = v {
            m.insert(name, v);
        }
    };
    let lowest = |f: &dyn Fn(&Round) -> Option<f64>| best_of(rounds, Better::Lower, f);
    put("setup_s", lowest(&|r| Some(r.setup_s)));
    put(
        "throughput_ops_s",
        best_of(rounds, Better::Higher, throughput),
    );
    for (name, kind, p) in [
        ("latency_p50_us", primary, 50.0),
        ("latency_p95_us", primary, 95.0),
        ("write_p50_us", Kind::Write, 50.0),
        ("write_p95_us", Kind::Write, 95.0),
        ("read_p50_us", Kind::Read, 50.0),
        ("read_p95_us", Kind::Read, 95.0),
    ] {
        put(name, lowest(&|r| round_percentile(r, kind, p)));
    }
    put(
        "restart_ready_s",
        lowest(&|r| r.extra.get("restart_ready_s").copied()),
    );
    for name in ["wal_bytes_per_write", "peak_rss_mb"] {
        let values: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.extra.get(name).copied())
            .collect();
        if !values.is_empty() {
            put(
                name,
                Some(Measured {
                    value: median(&values),
                    n: values.len(),
                }),
            );
        }
    }
    if own_rss {
        // In-process workloads: the high-water mark of this process.
        put(
            "peak_rss_mb",
            daemon::peak_rss_mb(std::process::id()).map(|value| Measured { value, n: 1 }),
        );
    }
    let attempted: u64 = rounds.iter().map(|r| r.samples.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed_ops()).sum();
    put(
        "failed_share",
        Some(Measured {
            value: failed as f64 / attempted.max(1) as f64,
            n: attempted as usize,
        }),
    );
    m
}

/// Run one workload in this process and print its result. Returns
/// whether every output was correct.
pub fn run_workload(name: &str, args: &RunArgs) -> Result<bool, String> {
    let mut workload = workloads::build(name, args.seed).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let wire = name.starts_with("wire_");
    if wire {
        daemon::ensure_serverd()?;
    }
    std::fs::create_dir_all(daemon::out_dir()).map_err(|e| format!("out dir: {e}"))?;

    // ---- rounds ---------------------------------------------------------------
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut spans: Vec<span::Span> = Vec::new();
    let mut measured = 0.0;
    loop {
        check_interrupt()?;
        // A traced run alternates untraced and traced rounds, so the
        // tracing overhead is measured within the run.
        let traced = args.trace && rounds.len() % 2 == 1;
        let (round, round_spans) = workload.round(traced.then_some(started))?;
        measured += round.measured_s;
        rounds.push(round);
        spans.extend(round_spans);
        let enough = measured >= args.seconds && (!args.trace || rounds.len() >= 2);
        if enough || started.elapsed().as_secs_f64() > WALL_LIMIT_S {
            break;
        }
    }

    let primary = workload.primary();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let mut metrics = end_to_end(&untraced, primary, !wire);

    // ---- traced run: layer probes ---------------------------------------------
    if args.trace {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let wire_us = if wire {
            best_of(&traced, Better::Lower, |r| {
                round_percentile(r, primary, 50.0)
            })
            .map_or(0.0, |m| m.value)
        } else {
            0.0
        };
        let mut tracer = span::Tracer::new(started);
        let report = workload.layers(&mut tracer, wire_us)?;
        spans.extend(tracer.spans);
        for (k, v) in report.metrics {
            metrics.insert(k, Measured { value: v, n: 1 });
        }
        let thr = |rs: &[&Round]| best_of(rs, Better::Higher, throughput);
        if let (Some(off), Some(on)) = (thr(&untraced), thr(&traced)) {
            metrics.insert(
                "trace_overhead_pct",
                Measured {
                    value: (off.value - on.value) / off.value * 100.0,
                    n: off.n + on.n,
                },
            );
        }
        if wire {
            let pooled = |kind: Kind| -> Vec<f64> {
                sorted(
                    &rounds
                        .iter()
                        .flat_map(|r| r.samples.of(kind).iter().copied())
                        .collect::<Vec<_>>(),
                )
            };
            let (w, r) = (pooled(Kind::Write), pooled(Kind::Read));
            if !w.is_empty() {
                metrics.insert(
                    "server.write_p99_us",
                    Measured {
                        value: percentile(&w, 99.0),
                        n: w.len(),
                    },
                );
            }
            if !r.is_empty() {
                metrics.insert(
                    "server.read_p99_us",
                    Measured {
                        value: percentile(&r, 99.0),
                        n: r.len(),
                    },
                );
            }
            let max = w
                .last()
                .copied()
                .unwrap_or(0.0)
                .max(r.last().copied().unwrap_or(0.0));
            metrics.insert(
                "server.max_us",
                Measured {
                    value: max,
                    n: w.len() + r.len(),
                },
            );
        }
        let path = daemon::out_dir().join(format!("{name}.trace.jsonl"));
        span::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // Per span name: median duration, median self time (duration minus
    // what child spans cover), count.
    let mut span_table = Map::new();
    for (span_name, (dur_us, self_us, n)) in span::summarize(&spans) {
        span_table.insert(
            span_name.to_string(),
            json!({"median_us": dur_us, "median_self_us": self_us, "n": n}),
        );
    }

    // ---- result ---------------------------------------------------------------
    let attempted: u64 = rounds.iter().map(|r| r.samples.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed_ops()).sum();
    let correct = failed == 0 && attempted > 0;

    let tier_printed = |t: Tier| {
        if args.trace {
            t != Tier::EndToEnd
        } else {
            t == Tier::EndToEnd
        }
    };
    let mut line_metrics = Map::new();
    let mut file_metrics = Map::new();
    println!(
        "# {name}  seed={} rounds={} measured={measured:.2}s trace={}",
        args.seed,
        rounds.len(),
        u8::from(args.trace)
    );
    for def in METRICS {
        let got = metrics.get(def.name).copied();
        if let Some(m) = got {
            file_metrics.insert(
                def.name.to_string(),
                json!({"value": m.value, "unit": def.unit, "n": m.n}),
            );
            println!(
                "{:<36} {:>16.4} {:<6} n={}",
                def.name, m.value, def.unit, m.n
            );
        }
        if tier_printed(def.tier) {
            // The driver wants every declared metric on every workload; one
            // that does not apply here reads 0.
            let value = got.map_or(0.0, |m| m.value);
            line_metrics.insert(
                def.name.to_string(),
                json!({"value": value, "unit": def.unit}),
            );
        }
    }
    let checks: Vec<Value> = rounds
        .iter()
        .flat_map(|r| &r.checks)
        .filter(|c| !c.ok)
        .map(|c| json!({"name": c.name, "detail": c.detail.as_str()}))
        .collect();
    let errors: Vec<Value> = rounds
        .iter()
        .flat_map(|r| &r.samples.errors)
        .take(8)
        .map(|e| json!(e.as_str()))
        .collect();
    for c in &checks {
        eprintln!("CHECK FAILED: {c}");
    }
    for e in &errors {
        eprintln!("OP FAILED: {e}");
    }
    // Every round's own figures, so a reader can see what the best round
    // was chosen from (and how noisy the machine was).
    let round_log: Vec<Value> = rounds
        .iter()
        .map(|r| {
            json!({
                "traced": r.traced,
                "setup_s": r.setup_s,
                "measured_s": r.measured_s,
                "throughput_ops_s": throughput(r),
                "p50_us": round_percentile(r, primary, 50.0),
                "p95_us": round_percentile(r, primary, 95.0),
            })
        })
        .collect();
    let result = json!({
        "workload": name,
        "trace": u8::from(args.trace),
        "seconds": args.seconds,
        "rounds": rounds.len(),
        "env": env_stanza(args.seed, workload.stream_hash(), &workload.op_counts()),
        "spans": Value::Object(span_table),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": checks,
        "errors": errors,
        "metrics": Value::Object(file_metrics),
        "round_log": round_log,
    });
    let path = daemon::out_dir().join(format!("{name}.trace{}.json", u8::from(args.trace)));
    std::fs::write(&path, serde_json::to_string_pretty(&result).unwrap() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(line_metrics),
    });
    println!("{}", serde_json::to_string(&line).unwrap());
    Ok(correct)
}

/// Run one workload in a fresh child process and read its result file
/// back. `quiet` captures the child's output (shown only on failure);
/// otherwise the child prints its tables to this process's terminal.
pub fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: u8,
    quiet: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()]);
    let what = format!("{workload} seed {seed} trace {trace}");
    let failed = if quiet {
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start {what}: {e}"))?;
        (!out.status.success()).then(|| String::from_utf8_lossy(&out.stderr).into_owned())
    } else {
        let status = cmd
            .status()
            .map_err(|e| format!("cannot start {what}: {e}"))?;
        (!status.success()).then(String::new)
    };
    if let Some(stderr) = failed {
        return Err(format!("{what} failed\n{stderr}"));
    }
    json::read_file(&daemon::out_dir().join(format!("{workload}.trace{trace}.json")))
}

/// Run every workload, untraced then traced, each in a fresh child
/// process, and merge their result files into one.
pub fn run_all(args: &RunArgs) -> Result<bool, String> {
    let mut all_ok = true;
    let mut merged = Map::new();
    for (name, _) in WORKLOADS {
        let mut entry = Map::new();
        for (trace, key) in [(0u8, "untraced"), (1, "traced")] {
            check_interrupt()?;
            match child_run(name, args.seed, args.seconds, trace, false) {
                Ok(doc) => {
                    entry.insert(key.to_string(), doc);
                }
                Err(e) => {
                    all_ok = false;
                    eprintln!("{e}");
                }
            }
        }
        merged.insert(name.to_string(), Value::Object(entry));
    }
    let result = json!({
        "benchmark": "pg-benchmark",
        "seed": args.seed,
        "seconds": args.seconds,
        "ok": all_ok,
        "workloads": Value::Object(merged),
    });
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| daemon::out_dir().join("result.json"));
    std::fs::write(&path, serde_json::to_string_pretty(&result).unwrap() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result: {}", path.display());
    Ok(all_ok)
}
