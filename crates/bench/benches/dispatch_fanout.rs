//! Trigger dispatch under fan-out: the per-statement cost of triggers that
//! can never fire.
//!
//! A realistic catalog holds many triggers monitoring disjoint labels and
//! keys; the catalog's dispatch index must make an activating statement
//! pay (close to) nothing for the irrelevant ones — no `TriggerSpec`
//! clones, no `PreStateView` builds, no binding. Three irrelevant-trigger
//! shapes are measured, each against the same statement on a trigger-free
//! session:
//!
//! * `irrelevant_triggers` — `AFTER CREATE` triggers on other labels;
//! * `irrelevant_same_kind_distinct_labels` — the same spread over all
//!   four action times, so every phase of the statement probes a populated
//!   `(time, kind)` cell of the index and misses by **label**;
//! * `irrelevant_same_kind_distinct_keys` — property-`SET` triggers on the
//!   statement's own label, missed by **key** (the index's other key
//!   space).
//!
//! The bar, held in quick mode (`cargo bench --bench dispatch_fanout --
//! --test`, which CI runs): a hot write with 100 installed-but-irrelevant
//! triggers stays within [`FANOUT_BAR`]× of the zero-trigger baseline,
//! best-of-N against best-of-N, so it holds on any machine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_bench::workloads::install_n_triggers;
use pg_triggers::Session;
use std::time::Instant;

/// 100 irrelevant triggers over zero triggers, at most.
const FANOUT_BAR: f64 = 2.0;

const CREATE: &str = "CREATE (:Target {i: 1})";
const SET: &str = "MATCH (t:Target) SET t.v = 1";

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

/// The zero-trigger floor for either statement: a session holding the one
/// `:Target` node the `SET` statement updates.
fn baseline() -> Session {
    let mut s = Session::new();
    s.run(CREATE).unwrap();
    s
}

/// `(name, statement, session armed with 100 triggers it never activates)`.
fn shapes() -> [(&'static str, &'static str, Session); 3] {
    let mut other_labels = baseline();
    install_n_triggers(&mut other_labels, 100, false);
    let mut every_phase = baseline();
    let mut other_keys = baseline();
    for i in 0..100 {
        // other labels again, a quarter at each action time
        let (time, body) = match i % 4 {
            0 => ("BEFORE", "SET NEW.seen = true"),
            1 => ("AFTER", "CREATE (:Fired)"),
            2 => ("ONCOMMIT", "CREATE (:Fired)"),
            _ => ("DETACHED", "CREATE (:Fired)"),
        };
        every_phase
            .install(&format!(
                "CREATE TRIGGER l{i} {time} CREATE ON 'Other{i}' FOR EACH NODE BEGIN {body} END"
            ))
            .unwrap();
        // the statement's own label, a key it never assigns
        other_keys
            .install(&format!(
                "CREATE TRIGGER k{i} AFTER SET ON 'Target'.'k{i}' FOR EACH NODE
                 BEGIN CREATE (:Fired) END"
            ))
            .unwrap();
    }
    [
        ("irrelevant_triggers", CREATE, other_labels),
        ("irrelevant_same_kind_distinct_labels", CREATE, every_phase),
        ("irrelevant_same_kind_distinct_keys", SET, other_keys),
    ]
}

/// Best per-statement time (µs) over `batches` batches of `iters` runs.
fn best_us(s: &mut Session, stmt: &str, batches: usize, iters: usize) -> f64 {
    (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                s.run(stmt).unwrap();
            }
            t.elapsed().as_nanos() as f64 / 1e3 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Hold [`FANOUT_BAR`] for every irrelevant-trigger shape.
fn hold_bars() {
    let mut missed = Vec::new();
    for (name, stmt, mut armed) in shapes() {
        let mut floor = baseline();
        // interleave so both sides meet the machine in the same state
        let (mut zero, mut hundred) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            zero = zero.min(best_us(&mut floor, stmt, 4, 200));
            hundred = hundred.min(best_us(&mut armed, stmt, 4, 200));
        }
        let ratio = hundred / zero;
        println!(
            "dispatch_fanout/{name}/100: {hundred:.2} us vs {zero:.2} us with no triggers \
             = {ratio:.2}x (bar {FANOUT_BAR}x)"
        );
        if ratio > FANOUT_BAR {
            missed.push(format!("{name}: {ratio:.2}x, bar {FANOUT_BAR}x"));
        }
    }
    assert!(
        missed.is_empty(),
        "irrelevant triggers are no longer free:\n{}",
        missed.join("\n")
    );
}

fn bench_dispatch_fanout(c: &mut Criterion) {
    let samples = if quick_mode() { 10 } else { 50 };
    let mut group = c.benchmark_group("dispatch_fanout");
    group.sample_size(samples);

    // zero triggers — the floors
    for (name, stmt) in [("triggers", CREATE), ("set_triggers", SET)] {
        let mut floor = baseline();
        group.bench_with_input(BenchmarkId::new(name, 0), &0, |b, _| {
            b.iter(|| floor.run(stmt).unwrap())
        });
    }

    // 100 triggers the statement can never activate, three ways
    for (name, stmt, mut armed) in shapes() {
        group.bench_with_input(BenchmarkId::new(name, 100), &100, |b, _| {
            b.iter(|| armed.run(stmt).unwrap())
        });
        let stats = armed.stats();
        assert_eq!(
            stats.fired + stats.suppressed,
            0,
            "{name}: irrelevant triggers must be neither fired nor evaluated"
        );
    }

    // 100 irrelevant + 1 matching: the index must not break real
    // dispatch, and the marginal cost should be the one firing trigger.
    let mut mixed = Session::new();
    install_n_triggers(&mut mixed, 100, false);
    mixed
        .install(
            "CREATE TRIGGER hot AFTER CREATE ON 'Target' FOR EACH NODE
             BEGIN CREATE (:Fired) END",
        )
        .unwrap();
    group.bench_with_input(
        BenchmarkId::new("irrelevant_plus_one_matching", 101),
        &101,
        |b, _| b.iter(|| mixed.run(CREATE).unwrap()),
    );
    group.finish();
    assert!(
        mixed.stats().fired > 0,
        "matching trigger must fire through the index"
    );

    if quick_mode() {
        hold_bars();
    }
}

criterion_group!(benches, bench_dispatch_fanout);
criterion_main!(benches);
