//! What a workload generates and what a round of it reports.
//!
//! The generator turns `--seed` into statements and parameters; the
//! engine is handed only those, never the seed.

use pg_graph::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Write,
    Read,
}

/// One generated statement with the answer the generator expects.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Position in the run's statement stream; the `stmt_id` of its spans.
    pub id: u64,
    pub kind: Kind,
    pub text: String,
    pub params: Vec<(String, Value)>,
    /// First value of the first row, when the generator knows it.
    pub expect_single: Option<Value>,
    /// Trigger firings the reply must report, when known.
    pub expect_fired: Option<i64>,
}

impl Stmt {
    pub fn new(id: u64, kind: Kind, text: impl Into<String>) -> Stmt {
        Stmt {
            id,
            kind,
            text: text.into(),
            params: Vec::new(),
            expect_single: None,
            expect_fired: None,
        }
    }

    pub fn param(mut self, name: &str, value: Value) -> Stmt {
        self.params.push((name.to_string(), value));
        self
    }

    pub fn expect(mut self, value: Value) -> Stmt {
        self.expect_single = Some(value);
        self
    }

    pub fn fired(mut self, n: i64) -> Stmt {
        self.expect_fired = Some(n);
        self
    }

    pub fn params_map(&self) -> pg_cypher::Params {
        self.params.iter().cloned().collect()
    }
}

/// A client operation: one auto-commit statement, or an explicit
/// `BEGIN … COMMIT` transaction of several.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    One(Stmt),
    Tx(Vec<Stmt>),
}

impl Op {
    pub fn stmts(&self) -> &[Stmt] {
        match self {
            Op::One(s) => std::slice::from_ref(s),
            Op::Tx(v) => v,
        }
    }
}

/// FNV-1a over every statement's kind, text, parameters and expectation:
/// two streams hash equal iff a client would send the same bytes and
/// check the same answers.
pub fn stream_hash<'a>(stmts: impl IntoIterator<Item = &'a Stmt>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in stmts {
        eat(&s.id.to_le_bytes());
        eat(&[s.kind as u8]);
        eat(s.text.as_bytes());
        eat(format!("{:?}{:?}{:?}", s.params, s.expect_single, s.expect_fired).as_bytes());
    }
    h
}

/// Latency samples and counts of one measured phase.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub write_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub errors: Vec<String>,
}

impl Samples {
    pub fn record(&mut self, kind: Kind, us: f64) {
        match kind {
            Kind::Write => self.write_us.push(us),
            Kind::Read => self.read_us.push(us),
        }
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what());
        }
    }

    pub fn merge(&mut self, other: Samples) {
        self.write_us.extend(other.write_us);
        self.read_us.extend(other.read_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    pub fn of(&self, kind: Kind) -> &[f64] {
        match kind {
            Kind::Write => &self.write_us,
            Kind::Read => &self.read_us,
        }
    }
}

/// A whole-round check (alerts == discoveries, closed-form trigger
/// counts, …). A failed one fails every op of `kind` in that round.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub kind: Kind,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn eq<T: PartialEq + std::fmt::Debug>(
        name: &'static str,
        kind: Kind,
        got: T,
        want: T,
    ) -> Check {
        Check {
            name,
            kind,
            ok: got == want,
            detail: format!("got {got:?}, want {want:?}"),
        }
    }
}

/// What one round (set-up → measured phase → checks → tear-down) yields.
#[derive(Debug, Default, Clone)]
pub struct Round {
    pub traced: bool,
    pub setup_s: f64,
    pub measured_s: f64,
    pub samples: Samples,
    pub checks: Vec<Check>,
    /// Workload-specific scalars by metric name (`restart_ready_s`,
    /// `wal_bytes_per_write`, `peak_rss_mb`, exact counts, …).
    pub extra: BTreeMap<&'static str, f64>,
}

impl Round {
    /// Ops that completed with the right answer.
    pub fn correct_ops(&self) -> u64 {
        self.samples.attempted - self.failed_ops()
    }

    /// Per-op failures plus, for every failed round check, all ops of its
    /// kind — capped at the number attempted.
    pub fn failed_ops(&self) -> u64 {
        let mut failed = self.samples.failed;
        for kind in [Kind::Write, Kind::Read] {
            if self.checks.iter().any(|c| !c.ok && c.kind == kind) {
                failed += self.samples.of(kind).len() as u64;
            }
        }
        failed.min(self.samples.attempted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_round_check_fails_every_op_of_its_kind() {
        let mut r = Round::default();
        r.samples.write_us = vec![1.0; 10];
        r.samples.read_us = vec![1.0; 30];
        r.samples.attempted = 40;
        assert_eq!((r.failed_ops(), r.correct_ops()), (0, 40));
        r.checks.push(Check::eq("alerts", Kind::Write, 3, 4));
        assert_eq!((r.failed_ops(), r.correct_ops()), (10, 30));
        r.checks.push(Check::eq("orphans", Kind::Read, 1, 0));
        r.samples.failed = 5;
        assert_eq!(r.failed_ops(), 40, "capped at attempted");
    }

    #[test]
    fn stream_hash_sees_text_params_and_expectations() {
        let a = Stmt::new(0, Kind::Read, "RETURN $x").param("x", Value::Int(1));
        let same = a.clone();
        assert_eq!(stream_hash([&a]), stream_hash([&same]));
        let other_param = Stmt::new(0, Kind::Read, "RETURN $x").param("x", Value::Int(2));
        assert_ne!(stream_hash([&a]), stream_hash([&other_param]));
        let other_expect = a.clone().expect(Value::Int(1));
        assert_ne!(stream_hash([&a]), stream_hash([&other_expect]));
    }
}
