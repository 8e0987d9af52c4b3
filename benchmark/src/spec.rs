//! The metric dictionary: every name the benchmark reports, with unit,
//! direction, regression bound and the workloads it applies to.
//! `BENCHMARK.json` at the repo root declares the same names; a unit
//! test holds the two together.
//!
//! Three tiers:
//!
//! * **end to end, every workload** — in `BENCHMARK.json`'s `end_to_end`,
//!   printed by an untraced run (`--trace 0`) and gated by the driver;
//! * **end to end, some workloads** — what a user sees on the workloads
//!   where the thing exists (`write_*`, `read_*`, `restart_ready_s`,
//!   `wal_bytes_per_write`, `failed_share`). The driver requires every
//!   `end_to_end` entry on every workload and never 0, so these are
//!   declared under `per_layer` there; their bounds live here and
//!   `compare` / `repeat` hold them;
//! * **per layer** — diagnostics without bounds, printed by a traced run.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    EndToEnd,
    Scoped,
    Layer,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may get worse.
    pub bound: Option<f64>,
    pub tier: Tier,
    /// Workloads it applies to; empty = all.
    pub on: &'static [&'static str],
}

const WRITE_WORKLOADS: &[&str] = &["wire_covid_mixed", "wire_write_burst", "engine_cascade"];
const READ_WORKLOADS: &[&str] = &[
    "wire_covid_mixed",
    "wire_point_read",
    "engine_analytic_join",
];
const DURABLE_WRITE_WORKLOADS: &[&str] = &["wire_covid_mixed", "wire_write_burst"];
const WIRE_WORKLOADS: &[&str] = &["wire_covid_mixed", "wire_point_read", "wire_write_burst"];
const DURABLE_WORKLOADS: &[&str] = WIRE_WORKLOADS;

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        tier: Tier::EndToEnd,
        on: &[],
    }
}

const fn scoped(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    on: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        tier: Tier::Scoped,
        on,
    }
}

const fn layer(name: &'static str, unit: &'static str, on: &'static [&'static str]) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        tier: Tier::Layer,
        on,
    }
}

const fn layer_up(name: &'static str, unit: &'static str, on: &'static [&'static str]) -> Metric {
    Metric {
        better: Better::Higher,
        ..layer(name, unit, on)
    }
}

pub const METRICS: &[Metric] = &[
    // ---- end to end, every workload --------------------------------------
    // Bounds are what two sets of ten runs on the 2-core box support (see
    // BASELINE.md), not the 10% the issue hoped for: identical code
    // differs by up to 19% between runs there.
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    // ---- end to end, where the thing exists ---------------------------------
    // The p95 of the primary kind exists everywhere, but its spread reached
    // 20% (and one pair of sets differed by 25%), so the driver does not
    // gate on it; `compare` and `repeat` still do.
    scoped("latency_p95_us", "us", 0.25, &[]),
    scoped("write_p50_us", "us", 0.25, WRITE_WORKLOADS),
    scoped("write_p95_us", "us", 0.25, WRITE_WORKLOADS),
    scoped("read_p50_us", "us", 0.25, READ_WORKLOADS),
    scoped("read_p95_us", "us", 0.25, READ_WORKLOADS),
    scoped("failed_share", "ratio", 0.0, &[]),
    scoped("restart_ready_s", "s", 0.25, &["wire_covid_mixed"]),
    scoped("wal_bytes_per_write", "B", 0.02, DURABLE_WRITE_WORKLOADS),
    // ---- per layer ------------------------------------------------------------
    layer("server.frame_codec_us", "us", WIRE_WORKLOADS),
    layer("server.wire_overhead_us", "us", WIRE_WORKLOADS),
    layer("server.bytes_per_op", "B", WIRE_WORKLOADS),
    layer("server.round_trips_per_op", "count", WIRE_WORKLOADS),
    layer("server.write_p99_us", "us", DURABLE_WRITE_WORKLOADS),
    layer(
        "server.read_p99_us",
        "us",
        &["wire_covid_mixed", "wire_point_read"],
    ),
    layer("server.max_us", "us", WIRE_WORKLOADS),
    layer("server.unattributed_us", "us", WIRE_WORKLOADS),
    layer("server.unattributed_share", "ratio", WIRE_WORKLOADS),
    layer("cypher.parse_us", "us", &[]),
    layer("cypher.plan_us", "us", &[]),
    layer("cypher.exec_us", "us", &[]),
    layer("cypher.rows_out_per_op", "count", &[]),
    layer("graph.index_probes_per_read", "count", READ_WORKLOADS),
    layer("graph.commit_publish_us", "us", WRITE_WORKLOADS),
    layer("graph.snapshot_refresh_us", "us", &[]),
    layer("graph.store_nodes", "count", &[]),
    layer("graph.store_rels", "count", &[]),
    layer("graph.snapshot_bytes", "B", &[]),
    layer("triggers.dispatch_us", "us", WRITE_WORKLOADS),
    layer(
        "triggers.us_per_activation",
        "us",
        &["wire_covid_mixed", "engine_cascade"],
    ),
    layer("triggers.fired_per_stmt", "count", WRITE_WORKLOADS),
    layer("triggers.suppressed_per_stmt", "count", WRITE_WORKLOADS),
    layer_up(
        "triggers.useful_ratio",
        "ratio",
        &["wire_covid_mixed", "engine_cascade"],
    ),
    layer("triggers.max_depth", "count", WRITE_WORKLOADS),
    layer("triggers.commit_rounds_per_tx", "count", WRITE_WORKLOADS),
    layer("triggers.detached_runs", "count", WRITE_WORKLOADS),
    layer("triggers.install_us", "us", WRITE_WORKLOADS),
    layer("schema.guard_us_per_commit", "us", &["engine_cascade"]),
    layer("wal.commit_overhead_us", "us", DURABLE_WRITE_WORKLOADS),
    layer("wal.bytes_per_commit", "B", DURABLE_WRITE_WORKLOADS),
    layer("wal.recover_replay_s", "s", DURABLE_WORKLOADS),
    layer("wal.recover_snapshot_s", "s", DURABLE_WORKLOADS),
    layer("wal.checkpoint_s", "s", DURABLE_WORKLOADS),
    layer("apoc.translate_us_per_trigger", "us", WRITE_WORKLOADS),
    layer("memgraph.translate_us_per_trigger", "us", WRITE_WORKLOADS),
    layer("trace_overhead_pct", "%", &[]),
];

#[cfg(test)]
pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

impl Metric {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.on.is_empty() || self.on.contains(&workload)
    }
}

/// `BENCHMARK.json` as this table defines it (`command`, `paths` and
/// `run_seconds` are fixed here too, so the file can be regenerated and
/// a test can hold the committed copy to it).
pub fn benchmark_json() -> serde_json::Value {
    use serde_json::{json, Value};
    let workloads: Vec<Value> = crate::workloads::WORKLOADS
        .iter()
        .map(|(name, why)| json!({"name": *name, "why": *why}))
        .collect();
    let end_to_end: Vec<Value> = METRICS
        .iter()
        .filter(|m| m.tier == Tier::EndToEnd)
        .map(|m| {
            json!({"name": m.name, "unit": m.unit, "better": m.better.as_str(),
                   "bound": m.bound.expect("end-to-end metrics are bounded")})
        })
        .collect();
    let per_layer: Vec<Value> = METRICS
        .iter()
        .filter(|m| m.tier != Tier::EndToEnd)
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str()}))
        .collect();
    let command = vec![
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    json!({
        "command": command,
        "paths": vec!["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

/// Measured seconds per run, as frozen in `BENCHMARK.json`.
pub const RUN_SECONDS: i64 = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                ok(m.name, "_.-", 64) && m.name.as_bytes()[0].is_ascii_alphanumeric(),
                "{}",
                m.name
            );
            assert!(ok(m.unit, "_/%.-", 16), "{} unit {}", m.name, m.unit);
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "duplicate {}",
                m.name
            );
            if let Some(b) = m.bound {
                assert!((0.0..=0.25).contains(&b));
            }
            for w in m.on {
                assert!(
                    crate::workloads::WORKLOADS.iter().any(|(n, _)| n == w),
                    "{w}"
                );
            }
        }
        let setup = metric("setup_s").unwrap();
        assert_eq!(
            (setup.unit, setup.better, setup.tier),
            ("s", Better::Lower, Tier::EndToEnd)
        );
        let largest = METRICS.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "set-up time carries the largest bound"
        );
    }

    #[test]
    fn committed_benchmark_json_matches_this_table() {
        let path = crate::daemon::bench_dir().join("../BENCHMARK.json");
        let committed = crate::json::read_file(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
        for (_, why) in crate::workloads::WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
