//! §6.2.3 relocation at surveillance scale: index-served top-k vs full
//! sort.
//!
//! Builds a ~100k-node CoV2K-style graph whose hospital network is a
//! dense `ConnectedTo {distance}` web, installs a `MoveToNearHospital`-
//! shaped trigger (`MATCH … WITH ct, pn, hc ORDER BY ct.distance LIMIT 1`)
//! and overflows one hospital's ICU — comparing wall-clock time with and
//! without the `ConnectedTo.distance` relationship index that lets the
//! executor serve the `ORDER BY … LIMIT 1` as an O(log n + k) ordered
//! index walk instead of sorting every connection.
//!
//! ```text
//! cargo run --release --example topk_relocation [--quick]
//! ```

use pg_covid::generate;
use pg_covid::GeneratorConfig;
use pg_graph::{GraphView, IndexDef, PropertyMap, Value};
use pg_triggers::Session;
use std::time::Instant;

/// The §6.2.3 `MoveToNearHospital` trigger, anchored on the overflow
/// hospital by name so the demo controls exactly which ICU overflows.
const MOVE_TO_NEAR: &str = "
CREATE TRIGGER MoveToNearDemo
AFTER CREATE
ON 'IcuPatient'
FOR EACH NODE
WHEN
  MATCH (NEW:IcuPatient)-[:TreatedAt]-(h:Hospital {name: 'Sacco'}),
  MATCH (p:IcuPatient)-[:TreatedAt]-(h)
  WITH COUNT(DISTINCT p) AS TotalIcuPat, h
  WHERE TotalIcuPat > h.icuBeds
BEGIN
  MATCH (pn:NEW)-[c:TreatedAt]-(h:Hospital {name: 'Sacco'})-[ct:ConnectedTo]-(hc:Hospital)
  WITH ct, c, hc, pn ORDER BY ct.distance LIMIT 1
  THEN
  BEGIN
    DELETE c
    CREATE (pn)-[:TreatedAt]->(hc)
  END
END";

fn build_session(cfg: &GeneratorConfig, connections: usize, indexed: bool) -> Session {
    let mut session = Session::new();
    generate(session.graph_mut(), cfg);
    {
        // A dense distance web around Sacco: `connections` extra hospitals,
        // each one `ConnectedTo` Sacco — the §6.2.3 ORDER BY input.
        let g = session.graph_mut();
        let sacco = {
            let hit = g
                .nodes_with_label("Hospital")
                .into_iter()
                .find(|id| {
                    g.node(*id).and_then(|n| n.props.get("name")).cloned()
                        == Some(Value::str("Sacco"))
                })
                .expect("generator creates Sacco");
            // keep the demo's overflow threshold small and deterministic
            g.set_node_prop(hit, "icuBeds", Value::Int(4)).unwrap();
            hit
        };
        for i in 0..connections {
            let props: PropertyMap = [
                ("name".to_string(), Value::str(format!("Transfer-{i}"))),
                ("icuBeds".to_string(), Value::Int(50)),
            ]
            .into_iter()
            .collect();
            let h = g.create_node(["Hospital"], props).unwrap();
            let dist: PropertyMap = [(
                "distance".to_string(),
                // pseudo-random distances ≥ 2; exactly one hospital at 1
                Value::Int(if i == connections / 2 {
                    1
                } else {
                    ((i * 7919) % 10_000) as i64 + 2
                }),
            )]
            .into_iter()
            .collect();
            g.create_rel(sacco, h, "ConnectedTo", dist).unwrap();
        }
        // Both twins index Hospital.name — the equality anchor is not what
        // this demo compares; only the rel-property index differs.
        g.create_index("Hospital", "name");
        if indexed {
            g.define_index(&IndexDef::rel("ConnectedTo", &["distance"]));
        }
    }
    session.install(MOVE_TO_NEAR).expect("relocation trigger");
    session
}

fn overflow_wave(session: &mut Session, n: usize) -> std::time::Duration {
    session.reset_stats();
    let start = Instant::now();
    for k in 0..n {
        session
            .run(&format!(
                "MATCH (h:Hospital {{name: 'Sacco'}}) \
                 CREATE (:Patient:HospitalizedPatient:IcuPatient {{\
                 ssn: 'TOPK{k:06}', id: {k}, prognosis: 'severe', \
                 admittedToICU: true}})-[:TreatedAt]->(h)"
            ))
            .expect("admission");
    }
    start.elapsed()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (cfg, connections, admissions) = if quick {
        (
            GeneratorConfig {
                patients: 2_000,
                sequences: 500,
                ..GeneratorConfig::default()
            },
            2_000,
            10,
        )
    } else {
        (
            GeneratorConfig {
                patients: 80_000,
                sequences: 10_000,
                ..GeneratorConfig::default()
            },
            20_000,
            20,
        )
    };

    println!("building graphs (indexed + full-sort twins)…");
    let mut indexed = build_session(&cfg, connections, true);
    let mut sorted = build_session(&cfg, connections, false);
    println!(
        "  {} nodes, {} ConnectedTo distances around Sacco",
        indexed.graph().node_count(),
        connections
    );

    indexed.graph().reset_index_probes();
    let t_indexed = overflow_wave(&mut indexed, admissions);
    let fired_indexed = indexed.stats().fired;
    let probes = indexed.graph().index_probes();
    let t_sorted = overflow_wave(&mut sorted, admissions);
    let fired_sorted = sorted.stats().fired;

    // Both engines must agree on where everyone ended up.
    let nearest = |s: &mut Session| -> (i64, i64) {
        let at_nearest = s
            .run(
                "MATCH (p:IcuPatient)-[:TreatedAt]-(h:Hospital) \
                 WHERE p.ssn STARTS WITH 'TOPK' AND h.name <> 'Sacco' \
                 RETURN count(DISTINCT p) AS n",
            )
            .unwrap()
            .single()
            .and_then(|v| v.as_i64())
            .unwrap_or(0);
        let at_sacco = s
            .run(
                "MATCH (p:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'}) \
                 WHERE p.ssn STARTS WITH 'TOPK' \
                 RETURN count(DISTINCT p) AS n",
            )
            .unwrap()
            .single()
            .and_then(|v| v.as_i64())
            .unwrap_or(0);
        (at_nearest, at_sacco)
    };
    let (moved_i, stayed_i) = nearest(&mut indexed);
    let (moved_s, stayed_s) = nearest(&mut sorted);
    assert_eq!(
        (moved_i, stayed_i),
        (moved_s, stayed_s),
        "index-served top-k must relocate exactly like the sort path"
    );
    assert!(moved_i > 0, "the overflow wave should relocate someone");
    assert_eq!(fired_indexed, fired_sorted, "same trigger activity");

    println!("\n§6.2.3 relocation wave ({admissions} admissions over a 4-bed ICU):");
    println!(
        "  indexed top-k : {t_indexed:?}  ({fired_indexed} firings, {} ordered index walks)",
        probes.ordered
    );
    println!("  full sort     : {t_sorted:?}  ({fired_sorted} firings)");
    let speedup = t_sorted.as_secs_f64() / t_indexed.as_secs_f64().max(1e-9);
    println!("  speedup       : {speedup:.1}x");
    println!("  relocated {moved_i} new arrivals ({stayed_i} stayed at Sacco)");
    assert!(
        probes.ordered >= 1,
        "the relocation body should walk the ordered rel index"
    );
}
