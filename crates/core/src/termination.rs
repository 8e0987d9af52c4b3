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
use crate::spec::{EventKind, EventType, ItemKind, TransitionVar, TriggerSpec};
use pg_cypher::ast::visit::{self, Node};
use pg_cypher::ast::{Clause, Expr, PathPattern, RemoveItem, SetItem};
use std::collections::{BTreeMap, BTreeSet};

/// A statically derived event pattern, in the engine's own vocabulary:
/// what [`TriggerCatalog::matching`] keys on at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventPattern {
    pub kind: EventKind,
    /// Target label/type; `None` = statically unknown (any).
    pub label: Option<String>,
    /// The property of a property event; `None` = statically unknown (any)
    /// and always `None` for the six item/label kinds.
    pub property: Option<String>,
}

impl EventPattern {
    /// Whether a generated event `g` may match a monitored event `m`.
    pub fn may_match(g: &EventPattern, m: &EventPattern) -> bool {
        fn compatible(a: &Option<String>, b: &Option<String>) -> bool {
            a.is_none() || b.is_none() || a == b
        }
        g.kind == m.kind && compatible(&g.label, &m.label) && compatible(&g.property, &m.property)
    }
}

/// The monitored event of a trigger (`None` when it monitors nothing, see
/// [`EventKind::of`]).
pub fn monitored_event(spec: &TriggerSpec) -> Option<EventPattern> {
    let kind = spec.kind()?;
    Some(EventPattern {
        kind,
        label: Some(spec.label.clone()),
        property: spec.property.clone().filter(|_| kind.on_property()),
    })
}

/// Candidate labels (node variables) or types (relationship variables).
type VarScope = BTreeMap<String, BTreeSet<String>>;

/// The walk behind [`generated_events`]: what the patterns say about each
/// variable, and the events derived so far.
#[derive(Default)]
struct Generated {
    node_labels: VarScope,
    /// Every relationship variable has an entry, possibly without types.
    rel_types: VarScope,
    out: Vec<EventPattern>,
}

impl Generated {
    /// Learn variable labels/types from the patterns `MATCH`, `CREATE`
    /// and `MERGE` clauses bind (`EXISTS` patterns bind nothing).
    fn harvest(&mut self, clauses: &[Clause]) {
        visit::clauses(clauses, &mut |node: Node| match node {
            Node::Clause(_) => true,
            Node::Pattern(p) => {
                for n in p.nodes() {
                    if let Some(v) = &n.var {
                        let known = self.node_labels.entry(v.clone()).or_default();
                        known.extend(n.labels.iter().cloned());
                    }
                }
                for (r, _) in &p.segments {
                    if let Some(v) = &r.var {
                        let known = self.rel_types.entry(v.clone()).or_default();
                        known.extend(r.types.iter().cloned());
                    }
                }
                false
            }
            Node::Expr(_) => false,
        });
    }

    fn push(&mut self, kind: EventKind, label: Option<String>, property: Option<&str>) {
        let ep = EventPattern {
            kind,
            label,
            property: property.map(str::to_string),
        };
        if !self.out.contains(&ep) {
            self.out.push(ep);
        }
    }

    /// What `target` is and the labels/types it may carry (`None` = any).
    /// Anything but a known relationship variable counts as a node.
    fn target(&self, target: &Expr) -> (ItemKind, Vec<Option<String>>) {
        let var = match target {
            Expr::Var(v) => Some(v),
            _ => None,
        };
        let (item, known) = match var.and_then(|v| self.rel_types.get(v)) {
            Some(types) => (ItemKind::Relationship, Some(types)),
            None => (ItemKind::Node, var.and_then(|v| self.node_labels.get(v))),
        };
        let labels = match known {
            Some(ls) if !ls.is_empty() => ls.iter().cloned().map(Some).collect(),
            _ => vec![None],
        };
        (item, labels)
    }

    /// A property `event` on `target`; `key` `None` = statically unknown.
    fn prop_event(&mut self, event: EventType, target: &Expr, key: Option<&str>) {
        let (item, labels) = self.target(target);
        if let Some(kind) = EventKind::of(event, item, true) {
            for label in labels {
                self.push(kind, label, key);
            }
        }
    }

    fn created(&mut self, p: &PathPattern) {
        for (r, _) in &p.segments {
            for t in &r.types {
                self.push(EventKind::RelCreated, Some(t.clone()), None);
            }
        }
        for n in p.nodes() {
            // A node pattern with a bound var is a reuse, not a creation —
            // but conservatively treat unbound ones as creations of each
            // labelled kind.
            if n.labels.is_empty() && n.var.is_none() {
                self.push(EventKind::NodeCreated, None, None);
            }
            for l in &n.labels {
                self.push(EventKind::NodeCreated, Some(l.clone()), None);
            }
        }
    }

    fn set_items(&mut self, items: &[SetItem]) {
        for item in items {
            match item {
                SetItem::Prop { target, key, value } => {
                    self.prop_event(EventType::Set, target, Some(key));
                    // Assigning null removes the property.
                    if !matches!(value, Expr::Literal(v) if !v.is_null()) {
                        self.prop_event(EventType::Remove, target, Some(key));
                    }
                }
                SetItem::Labels { labels, .. } => {
                    for l in labels {
                        self.push(EventKind::LabelSet, Some(l.clone()), None);
                    }
                }
                // `=` drops the keys its map lacks, `+=` those it maps to
                // null; which keys is not known statically.
                SetItem::ReplaceProps { var, .. } | SetItem::MergeProps { var, .. } => {
                    let target = Expr::Var(var.clone());
                    self.prop_event(EventType::Set, &target, None);
                    self.prop_event(EventType::Remove, &target, None);
                }
            }
        }
    }

    fn walk(&mut self, clauses: &[Clause]) {
        visit::clauses(clauses, &mut |node: Node| {
            let Node::Clause(c) = node else {
                return false;
            };
            match c {
                Clause::Create { patterns } => patterns.iter().for_each(|p| self.created(p)),
                Clause::Merge {
                    pattern,
                    on_create,
                    on_match,
                } => {
                    self.created(pattern);
                    self.set_items(on_create);
                    self.set_items(on_match);
                }
                Clause::Delete { detach, exprs } => {
                    for e in exprs {
                        let (item, labels) = self.target(e);
                        if let Some(kind) = EventKind::of(EventType::Delete, item, false) {
                            for label in labels {
                                self.push(kind, label, None);
                            }
                        }
                        // Detaching deletes whatever relationships the node
                        // has; their types are not known statically.
                        if *detach && item == ItemKind::Node {
                            self.push(EventKind::RelDeleted, None, None);
                        }
                    }
                }
                Clause::Set { items } => self.set_items(items),
                Clause::Remove { items } => {
                    for item in items {
                        match item {
                            RemoveItem::Prop { target, key } => {
                                self.prop_event(EventType::Remove, target, Some(key))
                            }
                            RemoveItem::Labels { labels, .. } => {
                                for l in labels {
                                    self.push(EventKind::LabelRemoved, Some(l.clone()), None);
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
            true
        });
    }
}

/// Conservatively derive the events a statement may generate. Labels of
/// variables are inferred from the patterns binding them in the trigger's
/// condition and statement; unknown variables yield wildcard labels.
pub fn generated_events(spec: &TriggerSpec) -> Vec<EventPattern> {
    let mut gen = Generated::default();
    if let Some(cond) = &spec.condition {
        gen.harvest(&cond.query().clauses);
    }
    gen.harvest(&spec.statement.query().clauses);
    // Transition variables carry the trigger's own target label/type.
    for var in [TransitionVar::New, TransitionVar::Old] {
        let scope = match spec.item {
            ItemKind::Node => &mut gen.node_labels,
            ItemKind::Relationship => &mut gen.rel_types,
        };
        let known = scope.entry(spec.var_name(var)).or_default();
        known.insert(spec.label.clone());
    }
    gen.walk(&spec.statement.query().clauses);
    gen.out
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
    let monitored: Vec<Option<EventPattern>> = specs.iter().map(|s| monitored_event(s)).collect();
    let generated: Vec<Vec<EventPattern>> = specs.iter().map(|s| generated_events(s)).collect();

    let mut edges = Vec::new();
    let n = specs.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, gen) in generated.iter().enumerate() {
        for (j, mon) in monitored.iter().enumerate() {
            let Some(mon) = mon else { continue };
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
    fn detach_delete_closes_a_cycle_through_relationship_deletion() {
        // The engine fires this pair until the Y nodes run out: detaching
        // deletes relationships of a statically unknown type.
        let c = catalog_of(&[
            "CREATE TRIGGER a AFTER CREATE ON 'X' FOR EACH NODE
             BEGIN MATCH (y:Y) DETACH DELETE y END",
            "CREATE TRIGGER b AFTER DELETE ON 'R' FOR EACH RELATIONSHIP BEGIN CREATE (:X) END",
        ]);
        let report = analyze(&c);
        assert!(report.edges.contains(&("a".into(), "b".into())));
        assert_eq!(report.cyclic_triggers, vec!["a", "b"]);
    }

    #[test]
    fn relationship_property_removal_closes_a_cycle() {
        let c = catalog_of(&[
            "CREATE TRIGGER a AFTER CREATE ON 'X' FOR EACH NODE
             BEGIN MATCH ()-[r:R]->() REMOVE r.w END",
            "CREATE TRIGGER b AFTER REMOVE ON 'R'.'w' FOR EACH RELATIONSHIP
             BEGIN CREATE (:X) END",
        ]);
        let report = analyze(&c);
        assert!(report.edges.contains(&("a".into(), "b".into())));
        assert_eq!(report.cyclic_triggers, vec!["a", "b"]);
    }

    #[test]
    fn map_and_null_assignments_generate_removals_on_the_right_item() {
        let s = spec(
            "CREATE TRIGGER t AFTER CREATE ON 'P' FOR EACH NODE
             BEGIN MATCH (q:Q)-[r:R]->() SET r += {w: 1} SET q = {} SET q.k = null SET q.j = 1 END",
        );
        let gen = generated_events(&s);
        let has = |kind, label: &str, property: Option<&str>| {
            gen.contains(&EventPattern {
                kind,
                label: Some(label.into()),
                property: property.map(str::to_string),
            })
        };
        assert!(has(EventKind::RelPropSet, "R", None));
        assert!(has(EventKind::RelPropRemoved, "R", None));
        assert!(has(EventKind::NodePropSet, "Q", None));
        assert!(has(EventKind::NodePropRemoved, "Q", None));
        assert!(has(EventKind::NodePropRemoved, "Q", Some("k")));
        assert!(has(EventKind::NodePropSet, "Q", Some("j")));
        // a non-null literal cannot remove
        assert!(!has(EventKind::NodePropRemoved, "Q", Some("j")));
        assert!(!gen
            .iter()
            .any(|g| g.kind == EventKind::NodePropSet && g.label.as_deref() == Some("R")));
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
            kind: EventKind::NodeCreated,
            label: Some("Alert".into()),
            property: None,
        }));
        let mon = monitored_event(&s).unwrap();
        assert_eq!(mon.label.as_deref(), Some("Mutation"));
    }
}
