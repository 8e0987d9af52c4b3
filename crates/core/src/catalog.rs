//! The trigger catalog: installed triggers, their total activation order,
//! and the one event-keyed dispatch index.
//!
//! Trigger conditions are considered on every activating statement, so the
//! engine must skip the triggers whose event *cannot* intersect a
//! statement's delta before any per-trigger work. The catalog keeps one
//! index — `(action time, event kind, name) → triggers` — where `name` is
//! the target label/type for the six item/label kinds and the monitored
//! key for the four property kinds (a touched item may carry a property
//! trigger's target label without the delta mentioning it; the key is
//! always there). [`TriggerCatalog::matching`] walks a delta once against
//! it and yields exactly the candidates, in activation order.

use crate::error::InstallError;
use crate::spec::{ActionTime, EventKind, TriggerSpec};
use pg_graph::Delta;
use std::collections::HashMap;
use std::sync::Arc;

/// How triggers sharing an action time are ordered (paper §4.2: "the most
/// sensible option … is to resort to the trigger creation time"; footnote 3
/// mentions name order as PostgreSQL's alternative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderPolicy {
    /// Total order by installation sequence (the paper's choice).
    #[default]
    CreationTime,
    /// Alphabetical by trigger name (PostgreSQL-style; also what APOC's
    /// `before` phase does, §5.1).
    Name,
}

/// One catalog entry. The spec is shared (`Arc`) so per-statement dispatch
/// never deep-clones trigger bodies.
#[derive(Debug, Clone)]
pub struct InstalledTrigger {
    pub spec: Arc<TriggerSpec>,
    /// Installation sequence number (creation-time order).
    pub seq: u64,
    /// Paused triggers (APOC `stop`/`start` parity) don't activate.
    pub enabled: bool,
}

/// Enabled triggers sharing one dispatch key, as `(seq, spec)` in
/// installation order.
type Bucket = Vec<(u64, Arc<TriggerSpec>)>;

/// One `(action time, event kind)` cell of the index, keyed by dispatch
/// name.
type Buckets = HashMap<String, Bucket>;

/// The catalog of installed triggers.
#[derive(Debug, Default)]
pub struct TriggerCatalog {
    triggers: Vec<InstalledTrigger>,
    next_seq: u64,
    pub order: OrderPolicy,
    /// The dispatch index, `[time as usize][kind as usize]`; rebuilt on
    /// install/drop/enable, which are rare next to statement dispatch.
    index: [[Buckets; EventKind::COUNT]; 4],
}

impl TriggerCatalog {
    pub fn new() -> Self {
        TriggerCatalog::default()
    }

    /// Install a trigger (name must be fresh). Returns its sequence number.
    pub fn install(&mut self, spec: TriggerSpec) -> Result<u64, InstallError> {
        if self.triggers.iter().any(|t| t.spec.name == spec.name) {
            return Err(InstallError::DuplicateName(spec.name));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.triggers.push(InstalledTrigger {
            spec: Arc::new(spec),
            seq,
            enabled: true,
        });
        self.reindex();
        Ok(seq)
    }

    /// Drop a trigger by name; `true` if it existed.
    pub fn drop_trigger(&mut self, name: &str) -> bool {
        let before = self.triggers.len();
        self.triggers.retain(|t| t.spec.name != name);
        let dropped = self.triggers.len() != before;
        if dropped {
            self.reindex();
        }
        dropped
    }

    /// Drop all triggers (APOC `dropAll`).
    pub fn drop_all(&mut self) {
        self.triggers.clear();
        self.reindex();
    }

    /// Pause (`false`) or resume (`true`) a trigger; `true` if found.
    pub fn set_enabled(&mut self, name: &str, enabled: bool) -> bool {
        match self.triggers.iter_mut().find(|t| t.spec.name == name) {
            Some(t) => {
                t.enabled = enabled;
                self.reindex();
                true
            }
            None => false,
        }
    }

    /// Rebuild the dispatch index from the enabled triggers. A spec with no
    /// event kind (`validate_spec` rejects it) monitors nothing.
    fn reindex(&mut self) {
        self.index = Default::default();
        for t in self.triggers.iter().filter(|t| t.enabled) {
            let Some(kind) = t.spec.kind() else { continue };
            let name = match &t.spec.property {
                Some(key) if kind.on_property() => key,
                _ => &t.spec.label,
            };
            self.index[t.spec.time as usize][kind as usize]
                .entry(name.clone())
                .or_default()
                .push((t.seq, Arc::clone(&t.spec)));
        }
    }

    pub fn get(&self, name: &str) -> Option<&InstalledTrigger> {
        self.triggers.iter().find(|t| t.spec.name == name)
    }

    pub fn len(&self) -> usize {
        self.triggers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }

    /// All triggers in catalog order (unsorted).
    pub fn all(&self) -> impl Iterator<Item = &InstalledTrigger> {
        self.triggers.iter()
    }

    /// Whether any enabled trigger has this action time.
    pub(crate) fn armed(&self, time: ActionTime) -> bool {
        self.index[time as usize].iter().any(|b| !b.is_empty())
    }

    /// The enabled triggers of `time` whose event can intersect `delta`, in
    /// activation order. Exact on event kind, on the target label/type of
    /// creation/deletion/label events and on the monitored key of property
    /// events; a property trigger's target-label check needs the graph and
    /// is left to [`crate::binding::bind`]. One walk over the delta, one
    /// `&str` probe per touched label/type/key, nothing allocated unless a
    /// trigger matches.
    pub fn matching(&self, time: ActionTime, delta: &Delta) -> Vec<Arc<TriggerSpec>> {
        let cell = &self.index[time as usize];
        // Distinct buckets hold distinct triggers, so de-duplicating the
        // buckets a bulk statement hits repeatedly is enough.
        let mut hits: Vec<&Bucket> = Vec::new();
        let mut probe = |kind: EventKind, name: &str| {
            if let Some(bucket) = cell[kind as usize].get(name) {
                if !hits.iter().any(|h| std::ptr::eq(*h, bucket)) {
                    hits.push(bucket);
                }
            }
        };
        for n in &delta.created_nodes {
            n.labels
                .iter()
                .for_each(|l| probe(EventKind::NodeCreated, l));
        }
        for n in &delta.deleted_nodes {
            n.labels
                .iter()
                .for_each(|l| probe(EventKind::NodeDeleted, l));
        }
        for r in &delta.created_rels {
            probe(EventKind::RelCreated, &r.rel_type);
        }
        for r in &delta.deleted_rels {
            probe(EventKind::RelDeleted, &r.rel_type);
        }
        for e in &delta.assigned_labels {
            probe(EventKind::LabelSet, &e.label);
        }
        for e in &delta.removed_labels {
            probe(EventKind::LabelRemoved, &e.label);
        }
        for p in &delta.assigned_node_props {
            probe(EventKind::NodePropSet, &p.key);
        }
        for p in &delta.removed_node_props {
            probe(EventKind::NodePropRemoved, &p.key);
        }
        for p in &delta.assigned_rel_props {
            probe(EventKind::RelPropSet, &p.key);
        }
        for p in &delta.removed_rel_props {
            probe(EventKind::RelPropRemoved, &p.key);
        }
        let mut matched: Vec<_> = hits.into_iter().flatten().collect();
        match self.order {
            OrderPolicy::CreationTime => matched.sort_by_key(|(seq, _)| *seq),
            OrderPolicy::Name => matched.sort_by(|a, b| a.1.name.cmp(&b.1.name)),
        }
        matched.into_iter().map(|(_, s)| Arc::clone(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{parse_trigger_ddl, DdlStatement};
    use pg_graph::{NodeId, NodeRecord, PropAssign, Value};

    fn spec(name: &str, time: &str) -> TriggerSpec {
        let src = format!(
            "CREATE TRIGGER {name} {time} CREATE ON 'L' FOR EACH NODE BEGIN CREATE (:X) END"
        );
        match parse_trigger_ddl(&src).unwrap() {
            DdlStatement::CreateTrigger(s) => s,
            _ => panic!(),
        }
    }

    /// The delta of a statement creating one node labelled `label`.
    fn created(label: &str) -> Delta {
        let mut rec = NodeRecord::new(NodeId(1));
        rec.labels.insert(label.to_string());
        Delta {
            created_nodes: vec![rec],
            ..Delta::default()
        }
    }

    fn names(c: &TriggerCatalog, time: ActionTime, delta: &Delta) -> Vec<String> {
        c.matching(time, delta)
            .iter()
            .map(|s| s.name.clone())
            .collect()
    }

    #[test]
    fn install_orders_by_creation() {
        let mut c = TriggerCatalog::new();
        c.install(spec("zeta", "AFTER")).unwrap();
        c.install(spec("alpha", "AFTER")).unwrap();
        assert_eq!(
            names(&c, ActionTime::After, &created("L")),
            vec!["zeta", "alpha"]
        );
    }

    #[test]
    fn name_order_policy() {
        let mut c = TriggerCatalog::new();
        c.order = OrderPolicy::Name;
        c.install(spec("zeta", "AFTER")).unwrap();
        c.install(spec("alpha", "AFTER")).unwrap();
        assert_eq!(
            names(&c, ActionTime::After, &created("L")),
            vec!["alpha", "zeta"]
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = TriggerCatalog::new();
        c.install(spec("t", "AFTER")).unwrap();
        assert!(matches!(
            c.install(spec("t", "AFTER")),
            Err(InstallError::DuplicateName(_))
        ));
    }

    #[test]
    fn matching_filters_by_label_kind_and_time() {
        let mut c = TriggerCatalog::new();
        c.install(spec("on_l", "AFTER")).unwrap(); // AFTER CREATE ON 'L'
        let mut other = spec("on_b", "AFTER");
        other.label = "B".into();
        c.install(other).unwrap();

        // a statement creating only a :B node: the :L trigger is skipped
        assert_eq!(names(&c, ActionTime::After, &created("B")), vec!["on_b"]);
        // no BEFORE triggers installed at all
        assert!(c.matching(ActionTime::Before, &created("B")).is_empty());
        assert!(!c.armed(ActionTime::Before));
        // a label-disjoint statement matches nothing
        assert!(c
            .matching(ActionTime::After, &created("Unrelated"))
            .is_empty());
        // nor does an event-kind-disjoint one (deletion of an :L node)
        let deletion = Delta {
            deleted_nodes: created("L").created_nodes,
            ..Delta::default()
        };
        assert!(c.matching(ActionTime::After, &deletion).is_empty());
        // a bulk statement hitting one bucket many times yields it once
        let mut bulk = created("L");
        bulk.created_nodes.extend(created("L").created_nodes);
        assert_eq!(names(&c, ActionTime::After, &bulk), vec!["on_l"]);
    }

    #[test]
    fn property_event_triggers_filter_by_key_not_label() {
        let src = "CREATE TRIGGER p AFTER SET ON 'L'.'occupancy' FOR EACH NODE
                   BEGIN CREATE (:X) END";
        let mut c = TriggerCatalog::new();
        match parse_trigger_ddl(src).unwrap() {
            DdlStatement::CreateTrigger(s) => c.install(s).unwrap(),
            _ => panic!(),
        };
        let assigned = |key: &str| Delta {
            assigned_node_props: vec![PropAssign {
                target: NodeId(1),
                key: key.into(),
                old: Value::Null,
                new: Value::Float(0.97),
            }],
            ..Delta::default()
        };
        // assignment of the monitored key on an unlabeled node: the label
        // check cannot be decided from the delta — must stay a candidate
        assert_eq!(
            c.matching(ActionTime::After, &assigned("occupancy")).len(),
            1
        );
        // a different key is filtered out
        assert!(c.matching(ActionTime::After, &assigned("other")).is_empty());
    }

    #[test]
    fn index_tracks_enable_disable_and_drop() {
        let mut c = TriggerCatalog::new();
        c.install(spec("t", "AFTER")).unwrap();
        let delta = created("L");
        assert_eq!(c.matching(ActionTime::After, &delta).len(), 1);
        c.set_enabled("t", false);
        assert!(c.matching(ActionTime::After, &delta).is_empty());
        assert!(!c.armed(ActionTime::After));
        c.set_enabled("t", true);
        assert_eq!(c.matching(ActionTime::After, &delta).len(), 1);
        c.drop_trigger("t");
        assert!(c.matching(ActionTime::After, &delta).is_empty());
    }

    #[test]
    fn drop_and_pause() {
        let mut c = TriggerCatalog::new();
        c.install(spec("a", "AFTER")).unwrap();
        c.install(spec("b", "ONCOMMIT")).unwrap();
        assert!(c.armed(ActionTime::After) && c.armed(ActionTime::OnCommit));
        assert!(c.set_enabled("a", false));
        assert!(!c.armed(ActionTime::After));
        assert!(c.set_enabled("a", true));
        assert!(c.drop_trigger("a"));
        assert!(!c.drop_trigger("a"));
        c.drop_all();
        assert!(c.is_empty());
        assert!(!c.armed(ActionTime::OnCommit));
    }
}
