//! `pg-benchmark compare <base.json> <new.json>`: one row per (workload,
//! bounded metric), judged against the bound in the metric dictionary —
//! the gate later performance and simplicity changes are held to.
//!
//! Both files are results of `run` (one value per metric) or of `repeat`
//! (median, quartiles and spread per metric); the two shapes may be mixed.

use crate::json;
use crate::spec::{Better, Metric, METRICS};
use crate::workloads::WORKLOADS;
use serde_json::Value;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub median: f64,
    /// Interquartile distance over the median, when the file has repeats.
    pub spread: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Regressed,
    /// The runs' own spread is wider than the bound: no claim either way.
    Unresolved,
    /// One side has no value.
    Missing,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative = better), in the metric's own direction.
pub fn worsening(metric: &Metric, base: f64, new: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        // A metric at 0 (failed_share) has no share to speak of: any rise
        // is infinitely worse, equality is no change.
        return if delta > 0.0 { f64::INFINITY } else { 0.0 };
    }
    delta / base.abs()
}

pub fn judge(metric: &Metric, base: Option<Point>, new: Option<Point>) -> Verdict {
    let (Some(base), Some(new)) = (base, new) else {
        return Verdict::Missing;
    };
    let bound = metric.bound.unwrap_or(0.0);
    let worse = worsening(metric, base.median, new.median);
    // failed_share: any rise fails, whatever the spread.
    if bound == 0.0 {
        return if worse > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::NoWorse
        };
    }
    let noisy = |p: Point| p.spread.is_some_and(|s| s > bound);
    if noisy(base) || noisy(new) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::NoWorse
    }
}

/// Pull one metric of one workload out of either result shape.
pub fn point(doc: &Value, workload: &str, metric: &str) -> Option<Point> {
    let w = doc.get("workloads")?.get(workload)?;
    // `run`: workloads.<w>.untraced.metrics.<m>.value
    if let Some(m) = w.get("untraced").and_then(|u| u.get("metrics")) {
        let median = m.get(metric)?.get("value")?.as_f64()?;
        return Some(Point {
            median,
            spread: None,
        });
    }
    // `repeat`: workloads.<w>.metrics.<m>.{median, spread}
    let m = w.get("metrics")?.get(metric)?;
    Some(Point {
        median: m.get("median")?.as_f64()?,
        spread: m.get("spread").and_then(Value::as_f64),
    })
}

pub fn bounded_metrics(workload: &str) -> impl Iterator<Item = &'static Metric> + '_ {
    METRICS
        .iter()
        .filter(move |m| m.bound.is_some() && m.applies_to(workload))
}

/// Print the table; `Ok(false)` when anything regressed.
pub fn compare_files(base: &Path, new: &Path) -> Result<bool, String> {
    let (base_doc, new_doc) = (json::read_file(base)?, json::read_file(new)?);
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse by", "bound"
    );
    let mut regressed = 0;
    for (workload, _) in WORKLOADS {
        for metric in bounded_metrics(workload) {
            let (b, n) = (
                point(&base_doc, workload, metric.name),
                point(&new_doc, workload, metric.name),
            );
            let verdict = judge(metric, b, n);
            regressed += usize::from(verdict == Verdict::Regressed);
            let show = |p: Option<Point>| p.map_or("-".to_string(), |p| format!("{:.4}", p.median));
            let worse = match (b, n) {
                (Some(b), Some(n)) => {
                    format!("{:+.1}%", worsening(metric, b.median, n.median) * 100.0)
                }
                _ => "-".to_string(),
            };
            println!(
                "{:<22} {:<20} {:>14} {:>14} {:>9} {:>6.0}%  {}",
                workload,
                metric.name,
                show(b),
                show(n),
                worse,
                metric.bound.unwrap_or(0.0) * 100.0,
                verdict.as_str()
            );
        }
    }
    if regressed > 0 {
        println!("{regressed} metric(s) regressed");
    }
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::metric;

    fn p(median: f64) -> Option<Point> {
        Some(Point {
            median,
            spread: None,
        })
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let thr = metric("throughput_ops_s").unwrap(); // higher is better, 25%
        assert_eq!(judge(thr, p(100.0), p(80.0)), Verdict::NoWorse);
        assert_eq!(judge(thr, p(100.0), p(74.0)), Verdict::Regressed);
        assert_eq!(judge(thr, p(100.0), p(126.0)), Verdict::Improved);
        let lat = metric("latency_p50_us").unwrap(); // lower is better, 25%
        assert_eq!(judge(lat, p(100.0), p(126.0)), Verdict::Regressed);
        assert_eq!(judge(lat, p(100.0), p(74.0)), Verdict::Improved);
        assert_eq!(judge(lat, p(100.0), None), Verdict::Missing);
    }

    #[test]
    fn any_rise_in_failed_share_regresses() {
        let failed = metric("failed_share").unwrap();
        assert_eq!(judge(failed, p(0.0), p(0.0)), Verdict::NoWorse);
        assert_eq!(judge(failed, p(0.0), p(0.0001)), Verdict::Regressed);
        assert_eq!(judge(failed, p(0.01), p(0.0)), Verdict::NoWorse);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let lat = metric("latency_p95_us").unwrap();
        let noisy = Some(Point {
            median: 100.0,
            spread: Some(0.3),
        });
        assert_eq!(judge(lat, noisy, p(150.0)), Verdict::Unresolved);
        let steady = Some(Point {
            median: 100.0,
            spread: Some(0.05),
        });
        assert_eq!(judge(lat, steady, p(150.0)), Verdict::Regressed);
    }

    #[test]
    fn both_result_shapes_are_read() {
        let run = json::parse(
            r#"{"workloads": {"engine_cascade": {"untraced": {"metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}}}}"#,
        )
        .unwrap();
        assert_eq!(point(&run, "engine_cascade", "setup_s"), p(0.5));
        let repeat = json::parse(
            r#"{"workloads": {"engine_cascade": {"metrics": {"setup_s": {"median": 0.4, "spread": 0.05}}}}}"#,
        )
        .unwrap();
        let got = point(&repeat, "engine_cascade", "setup_s").unwrap();
        assert_eq!((got.median, got.spread), (0.4, Some(0.05)));
        assert_eq!(point(&repeat, "engine_cascade", "peak_rss_mb"), None);
        assert_eq!(point(&repeat, "nope", "setup_s"), None);
    }

    #[test]
    fn scoped_metrics_are_compared_only_where_they_apply() {
        let names = |w| bounded_metrics(w).map(|m| m.name).collect::<Vec<_>>();
        assert!(names("wire_covid_mixed").contains(&"restart_ready_s"));
        assert!(!names("wire_point_read").contains(&"write_p50_us"));
        assert!(!names("engine_cascade").contains(&"wal_bytes_per_write"));
        assert!(names("engine_analytic_join").contains(&"read_p95_us"));
    }
}
