//! Work budgets for the §6 scenario over a long run: the planning work one
//! write costs must not grow with the number of writes before it.
//!
//! `IcuPatientIncrease` binds its transition list `NEWNODES` into every
//! seed row of its second `MATCH`, one row per patient at Sacco. Those
//! rows bind the same names and hold the same list, so the matcher plans
//! that `MATCH` once per chunk of them; planning it once per row makes a
//! Sacco admission's counting probes grow with the patients already there,
//! and a long run quadratic. The budget is read from the engine's own
//! counters (`Graph::index_probes().counting`: count-only index probes,
//! index statistics and degree-statistics lookups), so it holds on any
//! hardware.

use pg_covid::wire::{
    discover_critical_mutation, icu_admission, redesignate_lineage, setup_statements,
};
use pg_cypher::Params;
use pg_triggers::Session;

/// Writes replayed; long enough that the window compared last holds the
/// run's largest Sacco population.
const WRITES: usize = 1_200;

/// Per block of 12 writes: 10 admissions alternating Sacco and Meyer, one
/// critical-mutation discovery and one lineage redesignation.
const BLOCK: usize = 12;

/// The `i`th write, and whether it admits a patient to Sacco.
fn write(i: usize) -> (String, bool) {
    let tag = i as u64;
    match i % BLOCK {
        10 => (discover_critical_mutation(tag), false),
        // Alternating names, so `WHEN OLD <> NEW` holds every time.
        11 => (
            redesignate_lineage(["Delta", "Indian"][i / BLOCK % 2]),
            false,
        ),
        slot => {
            let hospital = if slot % 2 == 0 { "Sacco" } else { "Meyer" };
            let severity = (i % 10) as i64;
            (icu_admission(tag, hospital, severity), slot % 2 == 0)
        }
    }
}

/// Mean counting probes per Sacco admission among `writes[range]`.
fn mean_per_sacco_admission(probes: &[(u64, bool)], range: std::ops::Range<usize>) -> f64 {
    let sacco: Vec<u64> = probes[range]
        .iter()
        .filter(|(_, sacco)| *sacco)
        .map(|(n, _)| *n)
        .collect();
    sacco.iter().sum::<u64>() as f64 / sacco.len() as f64
}

#[test]
fn sacco_admission_planning_stays_flat_over_a_long_run() {
    let mut s = Session::new();
    for stmt in setup_statements() {
        let prepared = s.prepare(&stmt).unwrap();
        s.run_prepared(&prepared, Vec::new(), &Params::new())
            .unwrap_or_else(|e| panic!("{stmt}: {e}"));
    }
    let mut probes = Vec::with_capacity(WRITES);
    for i in 0..WRITES {
        let (stmt, sacco) = write(i);
        let prepared = s.prepare(&stmt).unwrap();
        s.graph().reset_index_probes();
        s.run_prepared(&prepared, Vec::new(), &Params::new())
            .unwrap_or_else(|e| panic!("write {i}: {stmt}: {e}"));
        probes.push((s.graph().index_probes().counting, sacco));
    }
    let early = mean_per_sacco_admission(&probes, 100..600);
    let late = mean_per_sacco_admission(&probes, 1_100..1_200);
    assert!(
        late <= 1.1 * early,
        "counting probes per Sacco admission grew from {early:.1} (writes 100-599) \
         to {late:.1} (writes 1100-1199)"
    );
}
