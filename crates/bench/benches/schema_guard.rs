//! The commit-time schema guard costs O(|Δ|), not O(graph).
//!
//! The §6 ICU admission — `Scenario::admission_wave("Sacco", 4)`: four
//! patients, four `TreatedAt` edges, plus whatever alerts and relocations
//! the paper's triggers add — commits under the CoV2K graph type on the
//! default scenario graph and on one ten times larger, each beside the
//! same wave stream on an unguarded twin. The guard's cost is the
//! difference. Two **relative** bars (no absolute time, so they hold on
//! any machine), each wave best-of-N against best-of-N:
//!
//! 1. *Independent of the graph.* The guard's cost at 10× the graph is at
//!    most [`GROWTH_BAR`]× its cost at 1× (a whole-graph validation per
//!    commit grows tenfold), where a cost under [`NOISE_SHARE`] of the
//!    admission it is measured on counts as that much.
//! 2. *Proportional to the transaction.* A guarded admission costs at most
//!    [`GUARDED_BAR`]× an unguarded one at 1×.
//!
//! Quick mode for CI: `cargo bench --bench schema_guard -- --test`.

use pg_covid::{GeneratorConfig, Scenario, ScenarioConfig};
use serde_json::json;
use std::time::Instant;

/// Guard cost at 10× the graph over guard cost at 1×, at most.
const GROWTH_BAR: f64 = 2.0;
/// Guarded admission over unguarded admission at 1×, at most.
const GUARDED_BAR: f64 = 1.25;
/// The guard's cost is a difference of two admission times and cannot be
/// resolved below this share of them; bar 1 compares the cost at 10×
/// against at least this share of the unguarded admission at 10×.
const NOISE_SHARE: f64 = 0.05;
const WAVE_SIZE: usize = 4;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

/// The indexed §6 scenario over `scale` × the default dataset.
fn scenario(scale: usize, guarded: bool) -> Scenario {
    let base = GeneratorConfig::default();
    let mut sc = Scenario::new(ScenarioConfig {
        generator: GeneratorConfig {
            mutations: base.mutations * scale,
            lineages: base.lineages * scale,
            sequences: base.sequences * scale,
            patients: base.patients * scale,
            ..base
        },
        indexed: true,
        ..ScenarioConfig::default()
    });
    if guarded {
        sc.session.set_schema(pg_covid::covid_graph_type());
    }
    sc
}

/// Mean admission time (µs) over a stream of `waves` waves, on a guarded
/// and an unguarded scenario fed the same stream: wave *i* does the same
/// work on both (and different work from wave *i+1* — occupancy grows,
/// relocations start), so each wave is timed best-of-`rounds` per side
/// before the stream is averaged. Every round starts from fresh scenarios
/// and the sides take turns to go first: whichever runs second finds the
/// statement's code and the allocator warm, worth more than the guard
/// costs.
fn mean_wave_us(scale: usize, rounds: usize, waves: usize) -> (f64, f64) {
    let mut best = vec![(f64::INFINITY, f64::INFINITY); waves];
    for round in 0..rounds {
        let (mut guarded, mut bare) = (scenario(scale, true), scenario(scale, false));
        let time = |sc: &mut Scenario| {
            let t = Instant::now();
            sc.admission_wave("Sacco", WAVE_SIZE).expect("admission");
            t.elapsed().as_nanos() as f64 / 1e3
        };
        for (wave, (guarded_us, bare_us)) in best.iter_mut().enumerate() {
            let guarded_first = (wave + round) % 2 == 0;
            if guarded_first {
                *guarded_us = guarded_us.min(time(&mut guarded));
            }
            *bare_us = bare_us.min(time(&mut bare));
            if !guarded_first {
                *guarded_us = guarded_us.min(time(&mut guarded));
            }
        }
        let nodes = |sc: &Scenario| sc.session.graph().node_count();
        assert_eq!(nodes(&guarded), nodes(&bare), "the guard rejected a wave");
    }
    let mean = |side: fn(&(f64, f64)) -> f64| best.iter().map(side).sum::<f64>() / waves as f64;
    (mean(|w| w.0), mean(|w| w.1))
}

fn main() {
    let quick = quick_mode();
    let (rounds, waves) = if quick { (6, 40) } else { (12, 50) };
    let (guarded_1, bare_1) = mean_wave_us(1, rounds, waves);
    let (guarded_10, bare_10) = mean_wave_us(10, rounds, waves);
    let (cost_1, cost_10) = (guarded_1 - bare_1, guarded_10 - bare_10);
    let growth = cost_10 / cost_1.max(NOISE_SHARE * bare_10);
    let guarded_ratio = guarded_1 / bare_1;
    println!(
        "schema_guard/growth: guard costs {cost_10:.1} us at 10x the graph vs {cost_1:.1} us \
         at 1x = {growth:.2}x (bar {GROWTH_BAR}x)"
    );
    println!(
        "schema_guard/guarded: {guarded_1:.1} us guarded vs {bare_1:.1} us unguarded at 1x \
         = {guarded_ratio:.2}x (bar {GUARDED_BAR}x)"
    );
    // Always the untracked location: these are this machine's numbers.
    pg_bench::write_report(
        "schema_guard",
        true,
        &json!({
            "bench": "schema_guard",
            "quick": quick,
            "wave_size": WAVE_SIZE,
            "rounds": rounds,
            "waves_per_round": waves,
            "x1": json!({"guarded_us": guarded_1, "unguarded_us": bare_1, "guard_us": cost_1}),
            "x10": json!({"guarded_us": guarded_10, "unguarded_us": bare_10, "guard_us": cost_10}),
            "growth": json!({"ratio": growth, "bar": GROWTH_BAR}),
            "guarded_over_unguarded": json!({"ratio": guarded_ratio, "bar": GUARDED_BAR}),
        }),
    );
    assert!(
        growth <= GROWTH_BAR,
        "the guard's cost grows with the graph: {growth:.2}x at 10x, bar {GROWTH_BAR}x"
    );
    assert!(
        guarded_ratio <= GUARDED_BAR,
        "a guarded admission costs {guarded_ratio:.2}x an unguarded one, bar {GUARDED_BAR}x"
    );
}
