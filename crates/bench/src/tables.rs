//! Regeneration of every table and figure in the paper.
//!
//! Each artifact function returns human-readable text plus a JSON value so
//! the integration tests can assert on the machine-readable form. See
//! `EXPERIMENTS.md` for the paper ↔ artifact index.

use pg_apoc::ApocDb;
use pg_covid::{Scenario, ScenarioConfig};
use pg_graph::{Delta, Graph, PreStateView, PropertyMap, Value};
use pg_memgraph::MemgraphDb;
use pg_triggers::{parse_trigger_ddl, DdlStatement, Session};
use serde_json::{json, Value as Json};

/// One regenerated artifact.
pub struct Artifact {
    pub id: &'static str,
    pub title: &'static str,
    pub text: String,
    pub data: Json,
}

// ---------------------------------------------------------------------
// Table 1 — comparison of graph databases on reactive support
// ---------------------------------------------------------------------

/// The static survey rows of paper Table 1 (§3): system, trigger support on
/// graph data (Tr-G), trigger support on relational data (Tr-R), event
/// listener (Ev-L).
pub const TABLE1_SURVEY: [(&str, &str, &str, &str); 15] = [
    ("Neo4j", "yes (APOC)", "-", "-"),
    ("Memgraph", "yes", "-", "-"),
    ("JanusGraph", "-", "-", "yes (JSBus)"),
    ("Dgraph", "-", "-", "yes (Lambda)"),
    ("Amazon Neptune", "-", "-", "yes (SNS)"),
    ("Stardog", "-", "-", "yes (Java)"),
    ("Nebula Graph", "-", "-", "-"),
    ("TigerGraph", "-", "-", "-"),
    ("GraphDB", "-", "-", "-"),
    ("Oracle Graph Database", "-", "yes", "-"),
    ("Virtuoso", "-", "yes", "-"),
    ("AgensGraph", "-", "yes", "-"),
    ("Microsoft Azure Cosmos DB", "-", "-", "yes (JS)"),
    ("OrientDB", "-", "-", "yes (Hooks)"),
    ("ArangoDB", "-", "-", "yes"),
];

/// Regenerate Table 1: the survey rows plus three *verified* rows probed
/// against our implementations (a trigger is installed and must fire).
pub fn table1() -> Artifact {
    // Probe 1: native PG-Triggers.
    let native_ok = {
        let mut s = Session::new();
        s.install(
            "CREATE TRIGGER probe AFTER CREATE ON 'P' FOR EACH NODE BEGIN CREATE (:Fired) END",
        )
        .unwrap();
        s.run("CREATE (:P)").unwrap();
        s.run("MATCH (f:Fired) RETURN count(*) AS n")
            .unwrap()
            .single()
            .and_then(|v| v.as_i64())
            == Some(1)
    };
    // Probe 2: APOC emulation.
    let apoc_ok = {
        let mut db = ApocDb::new();
        db.install(
            "neo4j",
            "probe",
            "UNWIND $createdNodes AS c CALL apoc.do.when(c:P, 'CREATE (:Fired)', '', {c: c}) YIELD value RETURN *",
            "afterAsync",
        )
        .unwrap();
        db.run_tx(&["CREATE (:P)"]).unwrap();
        db.query("MATCH (f:Fired) RETURN count(*) AS n")
            .unwrap()
            .single()
            .and_then(|v| v.as_i64())
            == Some(1)
    };
    // Probe 3: Memgraph emulation.
    let mg_ok = {
        let mut db = MemgraphDb::new();
        db.create_trigger(
            "CREATE TRIGGER probe ON () CREATE AFTER COMMIT EXECUTE \
             UNWIND createdVertices AS v WITH v WHERE 'P' IN labels(v) CREATE (:Fired)",
        )
        .unwrap();
        db.run_tx(&["CREATE (:P)"]).unwrap();
        db.query("MATCH (f:Fired) RETURN count(*) AS n")
            .unwrap()
            .single()
            .and_then(|v| v.as_i64())
            == Some(1)
    };

    let mut text = String::from(
        "Table 1 — reactive support in graph databases (survey rows from §3,\n\
         verified rows probed against this repository's engines)\n\n",
    );
    text.push_str(&format!(
        "{:<28} {:<12} {:<6} {:<14}\n",
        "System", "Tr-G", "Tr-R", "Ev-L"
    ));
    text.push_str(&format!("{}\n", "-".repeat(64)));
    let mut rows = Vec::new();
    for (sys, g, r, l) in TABLE1_SURVEY {
        text.push_str(&format!("{sys:<28} {g:<12} {r:<6} {l:<14}\n"));
        rows.push(json!({"system": sys, "tr_g": g, "tr_r": r, "ev_l": l, "verified": false}));
    }
    for (sys, ok) in [
        ("PG-Triggers (this crate)", native_ok),
        ("pg-apoc emulation", apoc_ok),
        ("pg-memgraph emulation", mg_ok),
    ] {
        let g = if ok { "yes [verified]" } else { "FAILED" };
        text.push_str(&format!("{sys:<28} {g:<12} {:<6} {:<14}\n", "-", "-"));
        rows.push(json!({"system": sys, "tr_g": g, "tr_r": "-", "ev_l": "-", "verified": ok}));
    }
    Artifact {
        id: "table1",
        title: "Table 1: reactive support comparison",
        text,
        data: json!({ "rows": rows, "all_probes_pass": native_ok && apoc_ok && mg_ok }),
    }
}

// ---------------------------------------------------------------------
// Figure 1 — the PG-Trigger grammar, exercised exhaustively
// ---------------------------------------------------------------------

/// Parse the full production matrix of the Figure 1 grammar:
/// `{BEFORE, AFTER, ONCOMMIT, DETACHED} × {CREATE, DELETE, SET, REMOVE} ×
/// {EACH, ALL} × {NODE, RELATIONSHIP} × {label, label.property}`, plus the
/// REFERENCING options.
pub fn figure1() -> Artifact {
    let times = ["BEFORE", "AFTER", "ONCOMMIT", "DETACHED"];
    let events = ["CREATE", "DELETE", "SET", "REMOVE"];
    let grans = ["EACH", "ALL"];
    let items = ["NODE", "RELATIONSHIP"];
    let props = ["", ".'p'"];
    let mut parsed = 0usize;
    let mut rejected = Vec::new();
    let mut total = 0usize;
    for time in times {
        for event in events {
            for gran in grans {
                for item in items {
                    for prop in props {
                        // property suffix only meaningful for SET/REMOVE
                        if !prop.is_empty() && event != "SET" && event != "REMOVE" {
                            continue;
                        }
                        total += 1;
                        let body = if time == "BEFORE" {
                            "SET NEW.x = 1"
                        } else {
                            "CREATE (:Log)"
                        };
                        let item_kw = if gran == "ALL" {
                            match item {
                                "NODE" => "NODES",
                                _ => "RELATIONSHIPS",
                            }
                        } else {
                            item
                        };
                        let refclause = match (gran, item, event) {
                            ("EACH", _, "CREATE") => "REFERENCING NEW AS fresh",
                            ("ALL", "NODE", "CREATE") => "REFERENCING NEWNODES AS batch",
                            ("ALL", "RELATIONSHIP", "CREATE") => "REFERENCING NEWRELS AS batch",
                            _ => "",
                        };
                        let src = format!(
                            "CREATE TRIGGER g {time} {event} ON 'L'{prop} {refclause} \
                             FOR {gran} {item_kw} WHEN 1 = 1 BEGIN {body} END"
                        );
                        match parse_trigger_ddl(&src) {
                            Ok(DdlStatement::CreateTrigger(_)) => parsed += 1,
                            Ok(_) => unreachable!(),
                            Err(e) => rejected.push(json!({
                                "combo": format!("{time} {event} {gran} {item}{prop}"),
                                "reason": e.to_string(),
                            })),
                        }
                    }
                }
            }
        }
    }
    let text = format!(
        "Figure 1 — PG-Trigger grammar coverage\n\n\
         CREATE TRIGGER <name> <time> <event>\n\
         ON <label>[.<property>]\n\
         [REFERENCING <alias for old or new>...]\n\
         FOR <granularity> <item>\n\
         [WHEN <condition>]\n\
         BEGIN <statement> END\n\n\
         productions exercised: {total}\n\
         parsed: {parsed}\n\
         rejected (semantic rules): {}\n\
         {}",
        rejected.len(),
        rejected
            .iter()
            .map(|r| format!(
                "  - {} : {}\n",
                r["combo"].as_str().unwrap(),
                r["reason"].as_str().unwrap()
            ))
            .collect::<String>()
    );
    Artifact {
        id: "figure1",
        title: "Figure 1: PG-Trigger syntax",
        text,
        data: json!({"total": total, "parsed": parsed, "rejected": rejected}),
    }
}

// ---------------------------------------------------------------------
// Table 2 / Table 3 — APOC transition metadata and the OLD/NEW scheme
// ---------------------------------------------------------------------

/// Build a delta exercising every action type once.
fn all_events_delta() -> (Graph, Delta, Vec<pg_graph::Op>) {
    let mut g = Graph::new();
    let doomed = g.create_node(["Doomed"], PropertyMap::new()).unwrap();
    let keep = g
        .create_node(
            ["Keep"],
            [
                ("p".to_string(), Value::Int(1)),
                ("gone".to_string(), Value::Int(0)),
            ]
            .into_iter()
            .collect::<PropertyMap>(),
        )
        .unwrap();
    let keep2 = g.create_node(["Keep"], PropertyMap::new()).unwrap();
    let doomed_rel = g
        .create_rel(keep, keep2, "DoomedRel", PropertyMap::new())
        .unwrap();
    let rel = g
        .create_rel(
            keep,
            keep2,
            "Rel",
            [
                ("w".to_string(), Value::Int(1)),
                ("gone".to_string(), Value::Int(0)),
            ]
            .into_iter()
            .collect::<PropertyMap>(),
        )
        .unwrap();
    g.begin().unwrap();
    let mark = g.mark();
    // every action type:
    g.create_node(["Created"], PropertyMap::new()).unwrap(); // node creation
    g.create_rel(keep, keep2, "CreatedRel", PropertyMap::new())
        .unwrap(); // rel creation
    g.detach_delete_node(doomed).unwrap(); // node deletion
    g.delete_rel(doomed_rel).unwrap(); // rel deletion
    g.set_label(keep, "Flagged").unwrap(); // label set
    g.remove_label(keep2, "Keep").unwrap(); // label removal
    g.set_node_prop(keep, "p", Value::Int(2)).unwrap(); // node prop set
    g.remove_node_prop(keep, "gone").unwrap(); // node prop removal
    g.set_rel_prop(rel, "w", Value::Int(9)).unwrap(); // rel prop set
    g.remove_rel_prop(rel, "gone").unwrap(); // rel prop removal
    let delta = g.delta_since(mark);
    let ops = g.ops_since(mark).to_vec();
    (g, delta, ops)
}

/// Table 2: the APOC utility structures, populated by one transaction
/// exercising all ten action types.
pub fn table2() -> Artifact {
    let (_g, delta, _ops) = all_events_delta();
    let params = pg_apoc::apoc_params(&delta);
    let describe: [(&str, &str); 10] = [
        ("createdNodes", "list of created nodes"),
        ("createdRelationships", "list of created relationships"),
        ("deletedNodes", "list of deleted nodes"),
        ("deletedRelationships", "list of deleted relationships"),
        ("assignedLabels", "set of new labels for an item"),
        ("removedLabels", "set of removed labels from an item"),
        (
            "assignedNodeProperties",
            "quadruple <target node, property name, old value, new value>",
        ),
        (
            "assignedRelProperties",
            "quadruple <target rel, property name, old value, new value>",
        ),
        (
            "removedNodeProperties",
            "triple <target node, property name, old value>",
        ),
        (
            "removedRelProperties",
            "triple <target rel, property name, old value>",
        ),
    ];
    let mut text = String::from("Table 2 — APOC trigger utility structures (populated counts)\n\n");
    text.push_str(&format!(
        "{:<26} {:<62} {}\n",
        "Statement", "Description", "count"
    ));
    text.push_str(&format!("{}\n", "-".repeat(96)));
    let mut rows = Vec::new();
    for (name, desc) in describe {
        let count = match &params[name] {
            Value::List(items) => items.len(),
            Value::Map(m) => m
                .values()
                .map(|v| v.as_list().map(|l| l.len()).unwrap_or(0))
                .sum(),
            _ => 0,
        };
        text.push_str(&format!("{name:<26} {desc:<62} {count}\n"));
        rows.push(json!({"statement": name, "description": desc, "count": count}));
    }
    let all_populated = rows.iter().all(|r| r["count"].as_u64().unwrap_or(0) > 0);
    text.push_str(&format!("\nall structures populated: {all_populated}\n"));
    Artifact {
        id: "table2",
        title: "Table 2: APOC trigger utility functions",
        text,
        data: json!({"rows": rows, "all_populated": all_populated}),
    }
}

/// Table 3: the OLD/NEW construction scheme — for each of the eight event
/// rows, verify which transition variables the engine binds.
pub fn table3() -> Artifact {
    let cases: [(&str, &str, &str); 8] = [
        // (row label, trigger middle, op description)
        (
            "Nodes / Create",
            "AFTER CREATE ON 'Created' FOR EACH NODE",
            "NEW",
        ),
        (
            "Nodes / Delete",
            "AFTER DELETE ON 'Doomed' FOR EACH NODE",
            "OLD",
        ),
        (
            "Relationships / Create",
            "AFTER CREATE ON 'CreatedRel' FOR EACH RELATIONSHIP",
            "NEW",
        ),
        (
            "Relationships / Delete",
            "AFTER DELETE ON 'DoomedRel' FOR EACH RELATIONSHIP",
            "OLD",
        ),
        (
            "Labels / Set",
            "AFTER SET ON 'Flagged' FOR EACH NODE",
            "NEW+OLD",
        ),
        (
            "Labels / Remove",
            "AFTER REMOVE ON 'Keep' FOR EACH NODE",
            "NEW+OLD",
        ),
        (
            "Node props / Set",
            "AFTER SET ON 'Flagged'.'p' FOR EACH NODE",
            "NEW+OLD",
        ),
        (
            "Node props / Remove",
            "AFTER REMOVE ON 'Flagged'.'gone' FOR EACH NODE",
            "NEW+OLD",
        ),
    ];
    let (g, delta, ops) = all_events_delta();
    let pre = PreStateView::new(&g, &ops);
    let mut text =
        String::from("Table 3 — OLD/NEW transition-variable scheme (engine-verified)\n\n");
    text.push_str(&format!("{:<24} {:<10} {:<10}\n", "Event", "OLD", "NEW"));
    text.push_str(&format!("{}\n", "-".repeat(46)));
    let mut rows = Vec::new();
    let mut all_match = true;
    for (label, middle, _expect) in cases {
        let ddl = format!("CREATE TRIGGER t {middle} BEGIN CREATE (:X) END");
        let spec = match parse_trigger_ddl(&ddl).unwrap() {
            DdlStatement::CreateTrigger(s) => s,
            _ => unreachable!(),
        };
        // FOR EACH: one activation unit of one seed row per affected item.
        let (seeds, _) = pg_triggers::binding::bind(&spec, &delta, &pre, &g);
        let (has_old, has_new) = seeds
            .first()
            .map(|unit| (unit[0].contains("OLD"), unit[0].contains("NEW")))
            .unwrap_or((false, false));
        if seeds.is_empty() {
            all_match = false;
        }
        text.push_str(&format!(
            "{label:<24} {:<10} {:<10}\n",
            if has_old { "bound" } else { "-" },
            if has_new { "bound" } else { "-" }
        ));
        rows.push(json!({
            "event": label,
            "old_bound": has_old,
            "new_bound": has_new,
            "activations": seeds.len(),
        }));
    }
    Artifact {
        id: "table3",
        title: "Table 3: OLD/NEW transition variables",
        text,
        data: json!({"rows": rows, "all_events_observed": all_match}),
    }
}

// ---------------------------------------------------------------------
// Figure 2 / Figure 3 — the syntax-directed translations
// ---------------------------------------------------------------------

/// Figure 2: the PG-Trigger → APOC translation of the paper's node-creation
/// example, plus the UNWIND source used for each of the ten event kinds.
pub fn figure2() -> Artifact {
    let spec = match parse_trigger_ddl(pg_covid::triggers::NEW_CRITICAL_MUTATION).unwrap() {
        DdlStatement::CreateTrigger(s) => s,
        _ => unreachable!(),
    };
    let install = pg_apoc::translate(&spec).unwrap();
    let mut text = format!(
        "Figure 2 — syntax-directed translation to APOC (node creation)\n\n\
         PG-Trigger:\n{}\n\n\
         apoc.trigger.install('databaseName', '{}', \"\n  {}\n\", {{phase:'{}'}})\n\n",
        pg_covid::triggers::NEW_CRITICAL_MUTATION.trim(),
        install.name,
        install.statement,
        install.phase.name(),
    );
    let kinds = [
        ("node creation", "AFTER CREATE ON 'L' FOR EACH NODE"),
        (
            "relationship creation",
            "AFTER CREATE ON 'L' FOR EACH RELATIONSHIP",
        ),
        ("node deletion", "AFTER DELETE ON 'L' FOR EACH NODE"),
        (
            "relationship deletion",
            "AFTER DELETE ON 'L' FOR EACH RELATIONSHIP",
        ),
        ("label set", "AFTER SET ON 'L' FOR EACH NODE"),
        ("label removal", "AFTER REMOVE ON 'L' FOR EACH NODE"),
        ("node-property set", "AFTER SET ON 'L'.'p' FOR EACH NODE"),
        (
            "node-property removal",
            "AFTER REMOVE ON 'L'.'p' FOR EACH NODE",
        ),
        (
            "rel-property set",
            "AFTER SET ON 'L'.'p' FOR EACH RELATIONSHIP",
        ),
        (
            "rel-property removal",
            "AFTER REMOVE ON 'L'.'p' FOR EACH RELATIONSHIP",
        ),
    ];
    text.push_str("Event-kind matrix (all ten kinds of §5.1):\n");
    let mut rows = Vec::new();
    for (kind, middle) in kinds {
        let ddl = format!("CREATE TRIGGER k {middle} BEGIN CREATE (:X) END");
        let spec = match parse_trigger_ddl(&ddl).unwrap() {
            DdlStatement::CreateTrigger(s) => s,
            _ => unreachable!(),
        };
        let t = pg_apoc::translate(&spec).unwrap();
        let source = t
            .statement
            .split_whitespace()
            .nth(1)
            .unwrap_or("")
            .to_string();
        text.push_str(&format!("  {kind:<26} → UNWIND {source}\n"));
        rows.push(json!({"kind": kind, "unwind_source": source}));
    }
    Artifact {
        id: "figure2",
        title: "Figure 2: PG-Trigger → APOC translation",
        text,
        data: json!({"example_statement": install.statement, "phase": install.phase.name(), "kinds": rows}),
    }
}

/// Table 4: Memgraph's predefined variables, populated by the all-events
/// transaction.
pub fn table4() -> Artifact {
    let (_g, delta, _ops) = all_events_delta();
    let row = pg_memgraph::memgraph_vars(&delta);
    let mut text = String::from("Table 4 — Memgraph predefined variables (populated counts)\n\n");
    text.push_str(&format!("{:<26} {}\n", "Variable", "count"));
    text.push_str(&format!("{}\n", "-".repeat(36)));
    let mut rows = Vec::new();
    for name in pg_memgraph::MEMGRAPH_VAR_NAMES {
        let count = row
            .get(name)
            .and_then(|v| v.as_list())
            .map(|l| l.len())
            .unwrap_or(0);
        text.push_str(&format!("{name:<26} {count}\n"));
        rows.push(json!({"variable": name, "count": count}));
    }
    let all_populated = rows.iter().all(|r| r["count"].as_u64().unwrap_or(0) > 0);
    text.push_str(&format!("\nall variables populated: {all_populated}\n"));
    Artifact {
        id: "table4",
        title: "Table 4: Memgraph predefined variables",
        text,
        data: json!({"rows": rows, "all_populated": all_populated}),
    }
}

/// Figure 3: the PG-Trigger → Memgraph translation of the node-creation
/// example, plus the variable used per event kind.
pub fn figure3() -> Artifact {
    let spec = match parse_trigger_ddl(pg_covid::triggers::NEW_CRITICAL_MUTATION).unwrap() {
        DdlStatement::CreateTrigger(s) => s,
        _ => unreachable!(),
    };
    let install = pg_memgraph::translate(&spec).unwrap();
    let mut text = format!(
        "Figure 3 — syntax-directed translation to Memgraph (node creation)\n\n{}\n\n",
        install.ddl
    );
    let kinds = [
        (
            "vertex creation",
            "AFTER CREATE ON 'L' FOR EACH NODE",
            "createdVertices",
        ),
        (
            "edge creation",
            "AFTER CREATE ON 'L' FOR EACH RELATIONSHIP",
            "createdEdges",
        ),
        (
            "vertex deletion",
            "AFTER DELETE ON 'L' FOR EACH NODE",
            "deletedVertices",
        ),
        (
            "edge deletion",
            "AFTER DELETE ON 'L' FOR EACH RELATIONSHIP",
            "deletedEdges",
        ),
        (
            "label set",
            "AFTER SET ON 'L' FOR EACH NODE",
            "setVertexLabels",
        ),
        (
            "label removal",
            "AFTER REMOVE ON 'L' FOR EACH NODE",
            "removedVertexLabels",
        ),
        (
            "vertex-property set",
            "AFTER SET ON 'L'.'p' FOR EACH NODE",
            "setVertexProperties",
        ),
        (
            "vertex-property removal",
            "AFTER REMOVE ON 'L'.'p' FOR EACH NODE",
            "removedVertexProperties",
        ),
        (
            "edge-property set",
            "AFTER SET ON 'L'.'p' FOR EACH RELATIONSHIP",
            "setEdgeProperties",
        ),
        (
            "edge-property removal",
            "AFTER REMOVE ON 'L'.'p' FOR EACH RELATIONSHIP",
            "removedEdgeProperties",
        ),
    ];
    text.push_str("Event-kind matrix:\n");
    let mut rows = Vec::new();
    let mut all_ok = true;
    for (kind, middle, expect) in kinds {
        let ddl = format!("CREATE TRIGGER k {middle} BEGIN CREATE (:X) END");
        let spec = match parse_trigger_ddl(&ddl).unwrap() {
            DdlStatement::CreateTrigger(s) => s,
            _ => unreachable!(),
        };
        let t = pg_memgraph::translate(&spec).unwrap();
        let ok = t.ddl.contains(expect);
        all_ok &= ok;
        text.push_str(&format!(
            "  {kind:<26} → {expect} [{}]\n",
            if ok { "ok" } else { "MISSING" }
        ));
        rows.push(json!({"kind": kind, "variable": expect, "ok": ok}));
    }
    Artifact {
        id: "figure3",
        title: "Figure 3: PG-Trigger → Memgraph translation",
        text,
        data: json!({"example_ddl": install.ddl, "kinds": rows, "all_ok": all_ok}),
    }
}

// ---------------------------------------------------------------------
// Figures 4–5 — the CoV2K PG-Schema
// ---------------------------------------------------------------------

/// Figures 4–5: the CoV2K schema, its structure, and validation of the
/// generated dataset (plus rejection of a corrupted graph).
pub fn figure45() -> Artifact {
    let gt = pg_covid::covid_graph_type();
    let mut g = Graph::new();
    let cfg = pg_covid::GeneratorConfig::default();
    pg_covid::generate(&mut g, &cfg);
    let violations = pg_schema::validate_graph(&g, &gt);

    // Corrupt a copy: a Patient with the wrong ssn type must be rejected.
    let mut bad = Graph::new();
    bad.create_node(
        ["Patient"],
        [("ssn".to_string(), Value::Int(1))]
            .into_iter()
            .collect::<PropertyMap>(),
    )
    .unwrap();
    let bad_violations = pg_schema::validate_graph(&bad, &gt);

    let text = format!(
        "Figures 4–5 — CoV2K PG-Schema\n\n{}\n\n\
         node types: {} | edge types: {} | STRICT: {}\n\
         IcuPatientType full labels: {:?}\n\
         generated dataset: {} nodes, {} rels → violations: {}\n\
         corrupted graph violations: {} (expected > 0)\n",
        pg_covid::COVID_SCHEMA_DDL.trim(),
        gt.node_types.len(),
        gt.edge_types.len(),
        gt.strict,
        gt.full_labels("IcuPatientType"),
        g.node_count(),
        g.rel_count(),
        violations.len(),
        bad_violations.len(),
    );
    Artifact {
        id: "figure45",
        title: "Figures 4–5: CoV2K PG-Schema",
        text,
        data: json!({
            "node_types": gt.node_types.len(),
            "edge_types": gt.edge_types.len(),
            "strict": gt.strict,
            "generated_nodes": g.node_count(),
            "generated_rels": g.rel_count(),
            "violations": violations.len(),
            "corrupted_violations": bad_violations.len(),
        }),
    }
}

// ---------------------------------------------------------------------
// §6.2 — the running-example trigger suite
// ---------------------------------------------------------------------

/// §6.2: run the COVID scenario and report every trigger's observable
/// effects.
pub fn triggers62() -> Artifact {
    let mut scenario = Scenario::new(ScenarioConfig::default());
    let report = scenario.run().expect("scenario runs");
    let mut text = String::from("§6.2 — running-example triggers (scenario outcomes)\n\n");
    text.push_str(&format!("admissions: {}\n", report.admissions));
    text.push_str(&format!(
        "trigger statements fired: {}\n",
        report.triggers_fired
    ));
    text.push_str(&format!(
        "relocated patients: {}\n\nalerts:\n",
        report.relocated_patients
    ));
    for (desc, n) in &report.alerts {
        text.push_str(&format!("  {n:>4} × {desc}\n"));
    }
    let alerts: Json = report
        .alerts
        .iter()
        .map(|(k, v)| (k.clone(), json!(v)))
        .collect::<serde_json::Map<String, Json>>()
        .into();
    Artifact {
        id: "triggers62",
        title: "§6.2: running-example triggers",
        text,
        data: json!({
            "admissions": report.admissions,
            "fired": report.triggers_fired,
            "relocated": report.relocated_patients,
            "alerts": alerts,
        }),
    }
}

/// Every artifact, in paper order.
pub fn all_artifacts() -> Vec<Artifact> {
    vec![
        table1(),
        figure1(),
        table2(),
        table3(),
        figure2(),
        table4(),
        figure3(),
        figure45(),
        triggers62(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_probes_pass() {
        let a = table1();
        assert_eq!(a.data["all_probes_pass"], json!(true));
        assert_eq!(a.data["rows"].as_array().unwrap().len(), 18);
    }

    #[test]
    fn figure1_covers_grammar() {
        let a = figure1();
        let total = a.data["total"].as_u64().unwrap();
        let parsed = a.data["parsed"].as_u64().unwrap();
        let rejected = a.data["rejected"].as_array().unwrap().len() as u64;
        assert_eq!(total, parsed + rejected);
        // the only rejections are the documented semantic rules
        // (rel label events, BEFORE body restrictions)
        assert!(parsed >= 80, "parsed = {parsed}");
        assert!(rejected <= 16, "rejected = {rejected}");
    }

    #[test]
    fn table2_and_4_fully_populated() {
        assert_eq!(table2().data["all_populated"], json!(true));
        assert_eq!(table4().data["all_populated"], json!(true));
    }

    #[test]
    fn table3_all_events_observed() {
        let a = table3();
        assert_eq!(a.data["all_events_observed"], json!(true));
        for row in a.data["rows"].as_array().unwrap() {
            assert!(row["activations"].as_u64().unwrap() >= 1, "{row}");
        }
    }

    #[test]
    fn figure2_translates_all_kinds() {
        let a = figure2();
        assert_eq!(a.data["kinds"].as_array().unwrap().len(), 10);
        assert!(a.data["example_statement"]
            .as_str()
            .unwrap()
            .contains("$createdNodes"));
    }

    #[test]
    fn figure3_translates_all_kinds() {
        let a = figure3();
        assert_eq!(a.data["all_ok"], json!(true));
    }

    #[test]
    fn figure45_validates() {
        let a = figure45();
        assert_eq!(a.data["violations"], json!(0));
        assert!(a.data["corrupted_violations"].as_u64().unwrap() > 0);
    }

    #[test]
    fn triggers62_produces_alerts() {
        let a = triggers62();
        assert!(a.data["fired"].as_u64().unwrap() > 0);
        assert!(!a.data["alerts"].as_object().unwrap().is_empty());
    }
}
