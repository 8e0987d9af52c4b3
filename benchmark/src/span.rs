//! Spans recorded by the benchmark itself, around client calls and
//! around calls into each layer's public functions. No library crate
//! takes a timestamp; every span here is taken from outside.
//!
//! A span is `{stmt_id, name, parent, start_ns, end_ns}`. Spans of one
//! statement share `stmt_id`; `parent` names the enclosing span of the
//! same statement. They are held in memory and written as JSON lines
//! when the run ends. A span's self time is its duration minus the part
//! of it that its child spans cover.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub stmt_id: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. All tracers of a run share `origin`, so
/// their spans merge onto one time axis.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record a span from two clock readings; returns its duration in
    /// microseconds.
    pub fn push(
        &mut self,
        stmt_id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) -> f64 {
        let span = Span {
            stmt_id,
            name,
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        };
        let us = span.dur_ns() as f64 / 1e3;
        self.spans.push(span);
        us
    }
}

/// Time `f` in microseconds, recording a span only when tracing is on —
/// the untraced run pays two clock reads and nothing else.
pub fn timed<T>(
    tracer: &mut Option<Tracer>,
    stmt_id: u64,
    name: &'static str,
    parent: Option<&'static str>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if let Some(t) = tracer {
        t.push(stmt_id, name, parent, start, end);
    }
    (out, (end - start).as_nanos() as f64 / 1e3)
}

/// Self time of every span, in input order: duration minus the union of
/// its children's intervals (clipped to the span). Children are the
/// spans of the same statement whose `parent` is this span's name.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut by_stmt: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_stmt.entry(s.stmt_id).or_default().push(i);
    }
    let mut out = vec![0u64; spans.len()];
    for members in by_stmt.values() {
        for &i in members {
            let s = &spans[i];
            let mut kids: Vec<(u64, u64)> = members
                .iter()
                .filter(|&&j| j != i && spans[j].parent == Some(s.name))
                .map(|&j| {
                    (
                        spans[j].start_ns.clamp(s.start_ns, s.end_ns),
                        spans[j].end_ns.clamp(s.start_ns, s.end_ns),
                    )
                })
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            out[i] = s.dur_ns() - covered;
        }
    }
    out
}

/// Per span name: `(median duration µs, median self time µs, count)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64, usize)> {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.dur_ns() as f64 / 1e3);
        e.1.push(self_ns as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, (dur, own))| (name, (stats::median(&dur), stats::median(&own), dur.len())))
        .collect()
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = match s.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        };
        writeln!(
            w,
            "{{\"stmt_id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.stmt_id, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, name: &'static str, parent: Option<&'static str>, a: u64, b: u64) -> Span {
        Span {
            stmt_id: id,
            name,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp(1, "op", None, 0, 100),
            sp(1, "run", Some("op"), 10, 40),
            sp(1, "pull", Some("op"), 30, 60), // overlaps `run` by 10
            sp(1, "leaf", Some("run"), 15, 20),
            // same names, other statement: must not be counted under stmt 1
            sp(2, "op", None, 0, 50),
            sp(2, "run", Some("op"), 0, 50),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 50, "children cover [10,60)");
        assert_eq!(own[1], 30 - 5);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 5);
        assert_eq!(own[4], 0);
        assert_eq!(own[5], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            sp(1, "op", None, 10, 20),
            sp(1, "child", Some("op"), 0, 15),
            sp(1, "child", Some("op"), 18, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10 - 5 - 2);
    }

    #[test]
    fn summary_takes_medians_per_name() {
        let spans = vec![
            sp(1, "op", None, 0, 1000),
            sp(2, "op", None, 0, 3000),
            sp(3, "op", None, 0, 2000),
            sp(3, "in", Some("op"), 0, 500),
        ];
        let sum = summarize(&spans);
        assert_eq!(sum["op"], (2.0, 1.5, 3));
        assert_eq!(sum["in"], (0.5, 0.5, 1));
    }

    #[test]
    fn timed_records_only_when_tracing() {
        let mut off: Option<Tracer> = None;
        let (v, us) = timed(&mut off, 1, "x", None, || 7);
        assert_eq!(v, 7);
        assert!(us >= 0.0);
        let mut on = Some(Tracer::new(Instant::now()));
        timed(&mut on, 9, "x", Some("p"), || ());
        let t = on.unwrap();
        assert_eq!(t.spans.len(), 1);
        assert_eq!((t.spans[0].stmt_id, t.spans[0].parent), (9, Some("p")));
        assert!(t.spans[0].end_ns >= t.spans[0].start_ns);
    }
}
