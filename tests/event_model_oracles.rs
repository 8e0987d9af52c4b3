//! Two oracles over the one event model (`pg_triggers::EventKind`):
//!
//! * **index vs brute force** — `TriggerCatalog::matching` against binding
//!   every installed trigger, over random catalogs and random deltas;
//! * **static ⊇ dynamic** — every event a trigger statement is *observed*
//!   to generate is an event `termination::generated_events` predicts, so
//!   every observed activation edge is an edge of the triggering graph.

use pg_bench::workloads::{install_chain, install_n_triggers, session_no_cascade};
use pg_graph::{Delta, Graph, GraphView, NodeId, PreStateView, PropertyMap, RelId, Value};
use pg_triggers::binding::bind;
use pg_triggers::termination::{generated_events, EventPattern};
use pg_triggers::{
    parse_trigger_ddl, ActionTime, DdlStatement, EventKind, OrderPolicy, Session, TriggerCatalog,
    TriggerSpec,
};
use proptest::prelude::*;

fn spec_of(ddl: &str) -> TriggerSpec {
    match parse_trigger_ddl(ddl) {
        Ok(DdlStatement::CreateTrigger(s)) => s,
        other => panic!("{ddl}: {other:?}"),
    }
}

// ---------------------------------------------------------------------
// (a) index vs brute force
// ---------------------------------------------------------------------

const TIMES: [(&str, ActionTime); 4] = [
    ("BEFORE", ActionTime::Before),
    ("AFTER", ActionTime::After),
    ("ONCOMMIT", ActionTime::OnCommit),
    ("DETACHED", ActionTime::Detached),
];
/// The ten event kinds as (event, item, takes a property).
const KINDS: [(&str, &str, bool); 10] = [
    ("CREATE", "NODE", false),
    ("DELETE", "NODE", false),
    ("CREATE", "RELATIONSHIP", false),
    ("DELETE", "RELATIONSHIP", false),
    ("SET", "NODE", false),
    ("REMOVE", "NODE", false),
    ("SET", "NODE", true),
    ("REMOVE", "NODE", true),
    ("SET", "RELATIONSHIP", true),
    ("REMOVE", "RELATIONSHIP", true),
];
/// Node labels and relationship types share one small name space, as do
/// property keys — so triggers collide on names across kinds.
const NAMES: [&str; 3] = ["A", "B", "C"];
const KEYS: [&str; 2] = ["p", "q"];

/// Apply one random mutation; out-of-range picks and store rejections
/// (e.g. deleting a node that still has relationships) are no-ops.
fn mutate(g: &mut Graph, (op, a, b, c): (usize, usize, usize, usize)) {
    let nodes = g.all_node_ids();
    let rels = g.all_rel_ids();
    let node = |i: usize| nodes.get(i % nodes.len().max(1)).copied();
    let rel = |i: usize| rels.get(i % rels.len().max(1)).copied();
    let (name, key) = (NAMES[c % 3], KEYS[c % 2]);
    let _ = match op {
        0 => g
            .create_node([name, NAMES[b % 3]], PropertyMap::new())
            .map(drop),
        1 => node(a).map_or(Ok(()), |n| g.detach_delete_node(n)),
        2 => match (node(a), node(b)) {
            (Some(s), Some(d)) => g.create_rel(s, d, name, PropertyMap::new()).map(drop),
            _ => Ok(()),
        },
        3 => rel(a).map_or(Ok(()), |r| g.delete_rel(r)),
        4 => node(a).map_or(Ok(()), |n| g.set_label(n, name).map(drop)),
        5 => node(a).map_or(Ok(()), |n| g.remove_label(n, name).map(drop)),
        6 => node(a).map_or(Ok(()), |n| g.set_node_prop(n, key, Value::Int(b as i64))),
        7 => node(a).map_or(Ok(()), |n| g.remove_node_prop(n, key).map(drop)),
        8 => rel(a).map_or(Ok(()), |r| g.set_rel_prop(r, key, Value::Int(b as i64))),
        _ => rel(a).map_or(Ok(()), |r| g.remove_rel_prop(r, key).map(drop)),
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matching_agrees_with_binding_every_trigger(
        triggers in proptest::collection::vec(
            (0usize..4, 0usize..10, 0usize..3, 0usize..2, any::<bool>(), "[a-z]{2}"),
            0..24,
        ),
        disabled in proptest::collection::vec(0usize..24, 0..6),
        by_name in any::<bool>(),
        setup in proptest::collection::vec((0usize..10, 0usize..8, 0usize..8, 0usize..6), 0..12),
        statement in proptest::collection::vec((0usize..10, 0usize..8, 0usize..8, 0usize..6), 0..16),
    ) {
        let mut catalog = TriggerCatalog::new();
        if by_name {
            catalog.order = OrderPolicy::Name;
        }
        for (i, (time, kind, label, key, all, prefix)) in triggers.iter().enumerate() {
            let (event, item, on_property) = KINDS[*kind];
            let property = if on_property { format!(".'{}'", KEYS[*key]) } else { String::new() };
            let granularity = if *all { format!("ALL {item}S") } else { format!("EACH {item}") };
            catalog.install(spec_of(&format!(
                "CREATE TRIGGER {prefix}{i} {} {event} ON '{}'{property} FOR {granularity} \
                 BEGIN RETURN 1 END",
                TIMES[*time].0, NAMES[*label],
            ))).unwrap();
        }
        for i in disabled {
            let name = catalog.all().nth(i).map(|t| t.spec.name.clone());
            if let Some(name) = name {
                catalog.set_enabled(&name, false);
            }
        }

        // a base every mutation has targets in, then a random history
        let mut g = Graph::new();
        for i in 0..6 {
            for step in [(0, 0, i, i + 1), (2, i, i + 1, i), (6, i, 1, i), (8, i, 1, i)] {
                mutate(&mut g, step);
            }
        }
        for step in setup {
            mutate(&mut g, step);
        }
        g.begin().unwrap();
        let mark = g.mark();
        for step in statement {
            mutate(&mut g, step);
        }
        let delta = g.delta_since(mark);
        let pre = PreStateView::new(&g, g.ops_since(mark));

        for (_, time) in TIMES {
            // brute force: the enabled triggers of `time` in activation order
            let mut scheduled: Vec<_> = catalog
                .all()
                .filter(|t| t.enabled && t.spec.time == time)
                .collect();
            match catalog.order {
                OrderPolicy::CreationTime => scheduled.sort_by_key(|t| t.seq),
                OrderPolicy::Name => scheduled.sort_by(|a, b| a.spec.name.cmp(&b.spec.name)),
            }
            let matched: Vec<String> = catalog
                .matching(time, &delta)
                .iter()
                .map(|s| s.name.clone())
                .collect();
            // `matched` is a subsequence of the schedule: only enabled
            // triggers of `time`, each once, in activation order …
            let mut rest = scheduled.iter();
            for name in &matched {
                prop_assert!(
                    rest.any(|t| &t.spec.name == name),
                    "{name} out of order, duplicated or not scheduled: {matched:?}"
                );
            }
            // … and it omits no trigger the delta activates.
            for t in scheduled {
                let (units, _) = bind(&t.spec, &delta, &pre, &g);
                prop_assert!(
                    units.is_empty() || matched.contains(&t.spec.name),
                    "{} binds {} unit(s) but was not matched; delta {delta:?}",
                    t.spec.to_ddl(),
                    units.len()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// (b) static ⊇ dynamic
// ---------------------------------------------------------------------

/// The events of `delta`, each as the pattern a trigger monitoring it would
/// have: a node event is visible under every label the node carries.
fn observed_events(delta: &Delta, g: &Graph) -> Vec<EventPattern> {
    let mut out = Vec::new();
    let mut see = |kind: EventKind, labels: Vec<String>, property: Option<&str>| {
        out.extend(labels.into_iter().map(|label| EventPattern {
            kind,
            label: Some(label),
            property: property.map(str::to_string),
        }))
    };
    let labels_of = |n: NodeId| {
        g.node(n)
            .map(|n| n.labels.iter().cloned().collect::<Vec<_>>())
            .unwrap_or_default()
    };
    let type_of = |r: RelId| {
        g.rel(r)
            .map(|r| r.rel_type.clone())
            .into_iter()
            .collect::<Vec<_>>()
    };
    for n in &delta.created_nodes {
        see(
            EventKind::NodeCreated,
            n.labels.iter().cloned().collect(),
            None,
        );
    }
    for n in &delta.deleted_nodes {
        see(
            EventKind::NodeDeleted,
            n.labels.iter().cloned().collect(),
            None,
        );
    }
    for r in &delta.created_rels {
        see(EventKind::RelCreated, vec![r.rel_type.clone()], None);
    }
    for r in &delta.deleted_rels {
        see(EventKind::RelDeleted, vec![r.rel_type.clone()], None);
    }
    for e in &delta.assigned_labels {
        see(EventKind::LabelSet, vec![e.label.clone()], None);
    }
    for e in &delta.removed_labels {
        see(EventKind::LabelRemoved, vec![e.label.clone()], None);
    }
    for p in &delta.assigned_node_props {
        see(EventKind::NodePropSet, labels_of(p.target), Some(&p.key));
    }
    for p in &delta.removed_node_props {
        see(
            EventKind::NodePropRemoved,
            labels_of(p.target),
            Some(&p.key),
        );
    }
    for p in &delta.assigned_rel_props {
        see(EventKind::RelPropSet, type_of(p.target), Some(&p.key));
    }
    for p in &delta.removed_rel_props {
        see(EventKind::RelPropRemoved, type_of(p.target), Some(&p.key));
    }
    out
}

/// Run each activator on `s` (cascading off) and check that whatever the
/// AFTER trigger `name` did in response was statically predicted. Returns
/// how many events were observed.
fn assert_statement_events_predicted(s: &mut Session, name: &str, activators: &[String]) -> usize {
    let spec = s.catalog().get(name).expect("installed").spec.clone();
    let predicted = generated_events(&spec);
    let mut observed = 0;
    for activator in activators {
        // How many ops are the activator's own: run it with the trigger
        // paused, then take it back.
        s.set_trigger_enabled(name, false).unwrap();
        s.begin().unwrap();
        let mark = s.graph().mark();
        s.run(activator).unwrap();
        let own = s.graph().ops_since(mark).len();
        s.rollback().unwrap();
        s.set_trigger_enabled(name, true).unwrap();
        // Everything past them is the trigger statement's doing.
        s.begin().unwrap();
        let mark = s.graph().mark();
        s.run(activator).unwrap();
        let g = s.graph();
        let delta = Delta::from_ops(
            &g.ops_since(mark)[own..],
            |id| g.node(id).cloned(),
            |id| g.rel(id).cloned(),
        );
        for event in observed_events(&delta, g) {
            observed += 1;
            assert!(
                predicted.iter().any(|p| EventPattern::may_match(p, &event)),
                "{name} generated {event:?} on `{activator}`, which the triggering graph \
                 does not predict: {predicted:?}"
            );
        }
        s.commit().unwrap();
    }
    observed
}

#[test]
fn paper_trigger_statements_generate_only_predicted_events() {
    use pg_covid::wire::{
        discover_critical_mutation, icu_admission, redesignate_lineage, seed_statements,
    };
    let mut activators: Vec<String> = vec![
        discover_critical_mutation(1),
        "MATCH (m:Mutation {name: 'M1'}), (s:Sequence) CREATE (m)-[:FoundIn]->(s)".into(),
        "MATCH (s:Sequence), (l:Lineage) CREATE (s)-[:BelongsTo]->(l)".into(),
        redesignate_lineage("Delta"),
    ];
    // enough Sacco admissions to cross every §6.2.2/§6.2.3 threshold (> 50)
    activators.extend((1..=52).map(|tag| icu_admission(tag, "Sacco", 5)));
    for ddl in pg_covid::PAPER_TRIGGERS {
        let mut s = session_no_cascade();
        for stmt in seed_statements() {
            s.run(&stmt).unwrap();
        }
        let name = s.install(ddl).unwrap();
        let observed = assert_statement_events_predicted(&mut s, &name, &activators);
        assert!(
            observed > 0,
            "{name} never fired: the oracle checked nothing"
        );
    }
}

#[test]
fn fixture_and_generated_bodies_generate_only_predicted_events() {
    // the cascade fixtures of `pg_bench::workloads`
    let mut s = session_no_cascade();
    install_chain(&mut s, 3);
    for i in 0..3 {
        let activator = format!("CREATE (:L{i})");
        assert_eq!(
            assert_statement_events_predicted(&mut s, &format!("chain{i}"), &[activator]),
            1
        );
    }
    let mut s = session_no_cascade();
    install_n_triggers(&mut s, 3, true);
    for i in 0..3 {
        let activator = "CREATE (:Target)".to_string();
        assert_eq!(
            assert_statement_events_predicted(&mut s, &format!("bench_t{i}"), &[activator]),
            1
        );
    }

    // the bodies `tests/prop_triggers.rs` generates, then one body per
    // statement form the triggering graph used to miss or misfile:
    // DETACH DELETE's relationship deletions, relationship-variable
    // REMOVE / SET += / SET =, and the removals behind SET = and SET … = null
    let setup = [
        "CREATE (:Y {k: 1, j: 2})-[:R {w: 1, v: 2}]->(:Z {k: 1})",
        "CREATE (:Y {k: 1})-[:S {w: 1}]->(:Z)",
    ];
    for (n, body) in [
        "CREATE (:Log)",
        "CREATE (:Seen)",
        "CREATE (:X)",
        "CREATE (:Probe)",
        "MATCH (y:Y) DETACH DELETE y",
        "MATCH ()-[r:R]->() REMOVE r.w",
        "MATCH ()-[r:R]->() SET r += {u: 1, v: null}",
        "MATCH ()-[r]->() SET r = {t: 1}",
        "MATCH (y:Y) SET y = {i: 1}",
        "MATCH (y:Y) SET y.k = null, y.h = 1",
        "MATCH (y:Y)-[r]->(z) SET r.w = z.missing, y += {k: null}",
    ]
    .into_iter()
    .enumerate()
    {
        let mut s = session_no_cascade();
        for stmt in setup {
            s.run(stmt).unwrap();
        }
        let name = s
            .install(&format!(
                "CREATE TRIGGER body{n} AFTER CREATE ON 'Go' FOR EACH NODE BEGIN {body} END"
            ))
            .unwrap();
        let observed = assert_statement_events_predicted(&mut s, &name, &["CREATE (:Go)".into()]);
        assert!(
            observed > 0,
            "`{body}` had no effect: the oracle checked nothing"
        );
    }
}
