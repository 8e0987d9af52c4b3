//! Conservative termination analysis via the **triggering graph**
//! (Baralis–Ceri–Widom, cited by the paper in §6.2.3 for the potentially
//! non-terminating `MoveToNearHospital` trigger).
//!
//! An edge `t1 → t2` is added when some event `t1`'s statement *may
//! generate* matches `t2`'s monitored event. If the triggering graph is
//! acyclic, every cascade terminates; cycles are reported with the involved
//! triggers (the analysis is conservative — a reported cycle may still
//! terminate at run time, as the paper notes for bed-availability tests).

use crate::catalog::TriggerCatalog;
use crate::spec::{EventType, ItemKind, TriggerSpec};
use pg_cypher::ast::{Clause, Expr, PathPattern, RemoveItem, SetItem};
use std::collections::{BTreeMap, BTreeSet};

/// What part of an item an event touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventObject {
    /// The item itself (creation / deletion).
    Item,
    /// A label.
    Label,
    /// A property; `None` = statically unknown property.
    Property(Option<String>),
}

/// A statically derived event pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventPattern {
    pub event: EventType,
    pub item: ItemKind,
    /// Target label; `None` = unknown/any label.
    pub label: Option<String>,
    pub object: EventObject,
}

impl EventPattern {
    /// Whether a generated event `g` may match a monitored event `m`.
    pub fn may_match(g: &EventPattern, m: &EventPattern) -> bool {
        if g.event != m.event || g.item != m.item {
            return false;
        }
        match (&g.label, &m.label) {
            (Some(a), Some(b)) if a != b => return false,
            _ => {}
        }
        match (&g.object, &m.object) {
            (EventObject::Item, EventObject::Item) => true,
            (EventObject::Label, EventObject::Label) => true,
            (EventObject::Property(a), EventObject::Property(b)) => match (a, b) {
                (Some(x), Some(y)) => x == y,
                _ => true, // unknown property may touch anything
            },
            _ => false,
        }
    }
}

/// The monitored event of a trigger.
pub fn monitored_event(spec: &TriggerSpec) -> EventPattern {
    let object = match spec.event {
        EventType::Create | EventType::Delete => EventObject::Item,
        EventType::Set | EventType::Remove => match &spec.property {
            Some(p) => EventObject::Property(Some(p.clone())),
            None => EventObject::Label,
        },
    };
    EventPattern {
        event: spec.event,
        item: spec.item,
        label: Some(spec.label.clone()),
        object,
    }
}

/// Conservatively derive the events a statement may generate. Labels of
/// variables are inferred from the patterns binding them in the trigger's
/// condition and statement; unknown variables yield wildcard labels.
pub fn generated_events(spec: &TriggerSpec) -> Vec<EventPattern> {
    // var -> candidate node labels / rel types inferred from patterns
    let mut node_labels: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut rel_types: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut rel_vars: BTreeSet<String> = BTreeSet::new();

    let mut all_clauses: Vec<&Clause> = Vec::new();
    if let Some(cond) = &spec.condition {
        all_clauses.extend(cond.query().clauses.iter());
    }
    all_clauses.extend(spec.statement.query().clauses.iter());

    fn harvest_pattern(
        p: &PathPattern,
        node_labels: &mut BTreeMap<String, BTreeSet<String>>,
        rel_types: &mut BTreeMap<String, BTreeSet<String>>,
        rel_vars: &mut BTreeSet<String>,
    ) {
        if let Some(v) = &p.start.var {
            node_labels
                .entry(v.clone())
                .or_default()
                .extend(p.start.labels.iter().cloned());
        }
        for (r, n) in &p.segments {
            if let Some(v) = &r.var {
                rel_vars.insert(v.clone());
                rel_types
                    .entry(v.clone())
                    .or_default()
                    .extend(r.types.iter().cloned());
            }
            if let Some(v) = &n.var {
                node_labels
                    .entry(v.clone())
                    .or_default()
                    .extend(n.labels.iter().cloned());
            }
        }
    }

    fn harvest_clauses<'a>(
        clauses: impl Iterator<Item = &'a Clause>,
        node_labels: &mut BTreeMap<String, BTreeSet<String>>,
        rel_types: &mut BTreeMap<String, BTreeSet<String>>,
        rel_vars: &mut BTreeSet<String>,
    ) {
        for c in clauses {
            match c {
                Clause::Match { patterns, .. } | Clause::Create { patterns } => {
                    for p in patterns {
                        harvest_pattern(p, node_labels, rel_types, rel_vars);
                    }
                }
                Clause::Merge { pattern, .. } => {
                    harvest_pattern(pattern, node_labels, rel_types, rel_vars)
                }
                Clause::Foreach { body, .. } => {
                    harvest_clauses(body.iter(), node_labels, rel_types, rel_vars)
                }
                _ => {}
            }
        }
    }
    harvest_clauses(
        all_clauses.iter().copied(),
        &mut node_labels,
        &mut rel_types,
        &mut rel_vars,
    );

    // Transition variables carry the trigger's own target label.
    for tv in ["NEW", "OLD", "NEWNODES", "OLDNODES"] {
        let name = spec
            .referencing
            .iter()
            .find(|(v, _)| v.keyword() == tv)
            .map(|(_, a)| a.clone())
            .unwrap_or_else(|| tv.to_string());
        if spec.item == ItemKind::Node {
            node_labels
                .entry(name)
                .or_default()
                .insert(spec.label.clone());
        }
    }

    let mut out: Vec<EventPattern> = Vec::new();
    let push = |ep: EventPattern, out: &mut Vec<EventPattern>| {
        if !out.contains(&ep) {
            out.push(ep);
        }
    };

    fn labels_of_expr(
        e: &Expr,
        node_labels: &BTreeMap<String, BTreeSet<String>>,
    ) -> Vec<Option<String>> {
        match e {
            Expr::Var(v) => match node_labels.get(v) {
                Some(ls) if !ls.is_empty() => ls.iter().cloned().map(Some).collect(),
                _ => vec![None],
            },
            _ => vec![None],
        }
    }

    fn walk(
        clauses: &[Clause],
        spec_item_hint: &BTreeMap<String, BTreeSet<String>>,
        rel_types: &BTreeMap<String, BTreeSet<String>>,
        rel_vars: &BTreeSet<String>,
        push: &mut dyn FnMut(EventPattern),
    ) {
        for c in clauses {
            match c {
                Clause::Create { patterns } => {
                    for p in patterns {
                        let mut nodes = vec![&p.start];
                        for (r, n) in &p.segments {
                            nodes.push(n);
                            for t in &r.types {
                                push(EventPattern {
                                    event: EventType::Create,
                                    item: ItemKind::Relationship,
                                    label: Some(t.clone()),
                                    object: EventObject::Item,
                                });
                            }
                        }
                        for n in nodes {
                            // A node pattern with a bound var is a reuse, not
                            // a creation — but conservatively treat unbound
                            // ones as creations of each labelled kind.
                            if n.labels.is_empty() {
                                if n.var.is_none() {
                                    push(EventPattern {
                                        event: EventType::Create,
                                        item: ItemKind::Node,
                                        label: None,
                                        object: EventObject::Item,
                                    });
                                }
                            } else {
                                for l in &n.labels {
                                    push(EventPattern {
                                        event: EventType::Create,
                                        item: ItemKind::Node,
                                        label: Some(l.clone()),
                                        object: EventObject::Item,
                                    });
                                }
                            }
                        }
                    }
                }
                Clause::Merge {
                    pattern,
                    on_create,
                    on_match,
                } => {
                    walk(
                        &[Clause::Create {
                            patterns: vec![pattern.clone()],
                        }],
                        spec_item_hint,
                        rel_types,
                        rel_vars,
                        push,
                    );
                    for items in [on_create, on_match] {
                        walk(
                            &[Clause::Set {
                                items: items.clone(),
                            }],
                            spec_item_hint,
                            rel_types,
                            rel_vars,
                            push,
                        );
                    }
                }
                Clause::Delete { exprs, .. } => {
                    for e in exprs {
                        if let Expr::Var(v) = e {
                            if rel_vars.contains(v) {
                                let types = rel_types.get(v).cloned().unwrap_or_default();
                                if types.is_empty() {
                                    push(EventPattern {
                                        event: EventType::Delete,
                                        item: ItemKind::Relationship,
                                        label: None,
                                        object: EventObject::Item,
                                    });
                                } else {
                                    for t in types {
                                        push(EventPattern {
                                            event: EventType::Delete,
                                            item: ItemKind::Relationship,
                                            label: Some(t),
                                            object: EventObject::Item,
                                        });
                                    }
                                }
                                continue;
                            }
                        }
                        for label in labels_of_expr(e, spec_item_hint) {
                            push(EventPattern {
                                event: EventType::Delete,
                                item: ItemKind::Node,
                                label,
                                object: EventObject::Item,
                            });
                        }
                    }
                }
                Clause::Set { items } => {
                    for item in items {
                        match item {
                            SetItem::Prop { target, key, .. } => {
                                let is_rel = matches!(target, Expr::Var(v) if rel_vars.contains(v));
                                let labels = if is_rel {
                                    match target {
                                        Expr::Var(v) => rel_types
                                            .get(v)
                                            .map(|ts| {
                                                ts.iter().cloned().map(Some).collect::<Vec<_>>()
                                            })
                                            .filter(|v| !v.is_empty())
                                            .unwrap_or_else(|| vec![None]),
                                        _ => vec![None],
                                    }
                                } else {
                                    labels_of_expr(target, spec_item_hint)
                                };
                                for label in labels {
                                    push(EventPattern {
                                        event: EventType::Set,
                                        item: if is_rel {
                                            ItemKind::Relationship
                                        } else {
                                            ItemKind::Node
                                        },
                                        label,
                                        object: EventObject::Property(Some(key.clone())),
                                    });
                                }
                            }
                            SetItem::Labels { labels, .. } => {
                                for l in labels {
                                    push(EventPattern {
                                        event: EventType::Set,
                                        item: ItemKind::Node,
                                        label: Some(l.clone()),
                                        object: EventObject::Label,
                                    });
                                }
                            }
                            SetItem::ReplaceProps { var, .. } | SetItem::MergeProps { var, .. } => {
                                for label in labels_of_expr(&Expr::Var(var.clone()), spec_item_hint)
                                {
                                    push(EventPattern {
                                        event: EventType::Set,
                                        item: ItemKind::Node,
                                        label,
                                        object: EventObject::Property(None),
                                    });
                                }
                            }
                        }
                    }
                }
                Clause::Remove { items } => {
                    for item in items {
                        match item {
                            RemoveItem::Prop { target, key } => {
                                for label in labels_of_expr(target, spec_item_hint) {
                                    push(EventPattern {
                                        event: EventType::Remove,
                                        item: ItemKind::Node,
                                        label,
                                        object: EventObject::Property(Some(key.clone())),
                                    });
                                }
                            }
                            RemoveItem::Labels { labels, .. } => {
                                for l in labels {
                                    push(EventPattern {
                                        event: EventType::Remove,
                                        item: ItemKind::Node,
                                        label: Some(l.clone()),
                                        object: EventObject::Label,
                                    });
                                }
                            }
                        }
                    }
                }
                Clause::Foreach { body, .. } => {
                    walk(body, spec_item_hint, rel_types, rel_vars, push)
                }
                _ => {}
            }
        }
    }

    let mut push_fn = |ep: EventPattern| push(ep, &mut out);
    walk(
        &spec.statement.query().clauses,
        &node_labels,
        &rel_types,
        &rel_vars,
        &mut push_fn,
    );
    out
}

/// The triggering graph and its analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct TerminationReport {
    /// Trigger names, in catalog order.
    pub triggers: Vec<String>,
    /// Edges `(from, to)` meaning "from's action may activate to".
    pub edges: Vec<(String, String)>,
    /// Triggers involved in at least one cycle.
    pub cyclic_triggers: Vec<String>,
}

impl TerminationReport {
    /// `true` when every cascade is guaranteed to terminate.
    pub fn is_acyclic(&self) -> bool {
        self.cyclic_triggers.is_empty()
    }
}

/// Build the triggering graph for a catalog and detect cycles.
pub fn analyze(catalog: &TriggerCatalog) -> TerminationReport {
    let specs: Vec<&TriggerSpec> = catalog.all().map(|t| t.spec.as_ref()).collect();
    let monitored: Vec<EventPattern> = specs.iter().map(|s| monitored_event(s)).collect();
    let generated: Vec<Vec<EventPattern>> = specs.iter().map(|s| generated_events(s)).collect();

    let mut edges = Vec::new();
    let n = specs.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, gen) in generated.iter().enumerate() {
        for (j, mon) in monitored.iter().enumerate() {
            if gen.iter().any(|g| EventPattern::may_match(g, mon)) {
                edges.push((specs[i].name.clone(), specs[j].name.clone()));
                adj[i].push(j);
            }
        }
    }

    // A trigger is cyclic iff it can reach itself.
    let mut cyclic = Vec::new();
    for start in 0..n {
        let mut seen = vec![false; n];
        let mut stack: Vec<usize> = adj[start].clone();
        let mut reaches_self = false;
        while let Some(x) = stack.pop() {
            if x == start {
                reaches_self = true;
                break;
            }
            if !seen[x] {
                seen[x] = true;
                stack.extend(adj[x].iter().copied());
            }
        }
        if reaches_self {
            cyclic.push(specs[start].name.clone());
        }
    }

    TerminationReport {
        triggers: specs.iter().map(|s| s.name.clone()).collect(),
        edges,
        cyclic_triggers: cyclic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{parse_trigger_ddl, DdlStatement};

    fn spec(src: &str) -> TriggerSpec {
        match parse_trigger_ddl(src).unwrap() {
            DdlStatement::CreateTrigger(s) => s,
            _ => panic!(),
        }
    }

    fn catalog_of(ddls: &[&str]) -> TriggerCatalog {
        let mut c = TriggerCatalog::new();
        for d in ddls {
            c.install(spec(d)).unwrap();
        }
        c
    }

    #[test]
    fn alert_chain_is_acyclic() {
        // A creates Alert; B monitors Alert and creates Log; no cycle.
        let c = catalog_of(&[
            "CREATE TRIGGER a AFTER CREATE ON 'Mutation' FOR EACH NODE BEGIN CREATE (:Alert) END",
            "CREATE TRIGGER b AFTER CREATE ON 'Alert' FOR EACH NODE BEGIN CREATE (:Log) END",
        ]);
        let report = analyze(&c);
        assert!(report.is_acyclic());
        assert!(report.edges.contains(&("a".into(), "b".into())));
        assert!(!report.edges.contains(&("b".into(), "a".into())));
    }

    #[test]
    fn self_loop_detected() {
        let c = catalog_of(&[
            "CREATE TRIGGER loops AFTER CREATE ON 'Alert' FOR EACH NODE BEGIN CREATE (:Alert) END",
        ]);
        let report = analyze(&c);
        assert_eq!(report.cyclic_triggers, vec!["loops"]);
    }

    #[test]
    fn two_trigger_cycle_detected() {
        let c = catalog_of(&[
            "CREATE TRIGGER x AFTER CREATE ON 'A' FOR EACH NODE BEGIN CREATE (:B) END",
            "CREATE TRIGGER y AFTER CREATE ON 'B' FOR EACH NODE BEGIN CREATE (:A) END",
        ]);
        let report = analyze(&c);
        assert_eq!(report.cyclic_triggers.len(), 2);
    }

    #[test]
    fn property_events_match_only_same_property() {
        let c = catalog_of(&[
            "CREATE TRIGGER setter AFTER CREATE ON 'P' FOR EACH NODE
             BEGIN MATCH (q:Q) SET q.score = 1 END",
            "CREATE TRIGGER watch_score AFTER SET ON 'Q'.'score' FOR EACH NODE BEGIN CREATE (:L1) END",
            "CREATE TRIGGER watch_other AFTER SET ON 'Q'.'other' FOR EACH NODE BEGIN CREATE (:L2) END",
        ]);
        let report = analyze(&c);
        assert!(report
            .edges
            .contains(&("setter".into(), "watch_score".into())));
        assert!(!report
            .edges
            .contains(&("setter".into(), "watch_other".into())));
    }

    #[test]
    fn unknown_label_is_wildcard() {
        // DELETE on a variable with unknown labels may delete anything.
        let c = catalog_of(&[
            "CREATE TRIGGER del AFTER CREATE ON 'P' FOR EACH NODE
             BEGIN MATCH (x) WITH x LIMIT 1 DETACH DELETE x END",
            "CREATE TRIGGER watch AFTER DELETE ON 'Anything' FOR EACH NODE BEGIN CREATE (:L) END",
        ]);
        let report = analyze(&c);
        assert!(report.edges.contains(&("del".into(), "watch".into())));
    }

    #[test]
    fn move_to_near_hospital_is_cyclic() {
        // The paper's §6.2.3 example: relocating ICU patients may re-create
        // TreatedAt relationships… but the trigger monitors IcuPatient node
        // creation, which its statement does not generate — the cascade in
        // the paper happens because relocation can overflow the destination
        // hospital, monitored by a TreatedAt-relationship trigger variant.
        let c = catalog_of(&[
            "CREATE TRIGGER moveOnOverflow AFTER CREATE ON 'TreatedAt' FOR EACH RELATIONSHIP
             WHEN MATCH (p:IcuPatient)-[NEW]-(h:Hospital) WITH COUNT(p) AS n, h WHERE n > h.icuBeds
             BEGIN
               MATCH (pn:NEW), MATCH (h:Hospital)-[ct:ConnectedTo]-(hc:Hospital)
               WITH pn, hc ORDER BY ct.distance LIMIT 1
               MATCH (pn)-[c:TreatedAt]-(h2) DELETE c CREATE (pn)-[:TreatedAt]->(hc)
             END",
        ]);
        let report = analyze(&c);
        assert_eq!(report.cyclic_triggers, vec!["moveOnOverflow"]);
    }

    #[test]
    fn generated_events_for_paper_trigger() {
        let s = spec(
            "CREATE TRIGGER NewCriticalMutation AFTER CREATE ON 'Mutation' FOR EACH NODE
             WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect)
             BEGIN CREATE (:Alert{desc: 'x'}) END",
        );
        let gen = generated_events(&s);
        assert!(gen.contains(&EventPattern {
            event: EventType::Create,
            item: ItemKind::Node,
            label: Some("Alert".into()),
            object: EventObject::Item,
        }));
        let mon = monitored_event(&s);
        assert_eq!(mon.label.as_deref(), Some("Mutation"));
    }
}
