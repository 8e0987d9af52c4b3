//! Trigger specifications: the AST of `CREATE TRIGGER` (paper Figure 1).

use pg_cypher::Prepared;
use std::fmt;
use std::sync::Arc;

/// `<time>`: when the trigger's condition is considered and its action run
/// relative to the activating statement (paper §4.2 "Action Time").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionTime {
    /// Condition sees the pre-statement state; statement restricted to
    /// conditioning the NEW items (property assignments only).
    Before,
    /// Runs after the statement, inside the transaction; cascades.
    After,
    /// Runs at the commit point, inside the same transaction; side effects
    /// are folded in before the actual commit; failure rolls back the whole
    /// transaction.
    OnCommit,
    /// Runs after a successful commit in an autonomous transaction.
    Detached,
}

impl ActionTime {
    pub fn keyword(self) -> &'static str {
        match self {
            ActionTime::Before => "BEFORE",
            ActionTime::After => "AFTER",
            ActionTime::OnCommit => "ONCOMMIT",
            ActionTime::Detached => "DETACHED",
        }
    }
}

/// `<event>`: the kind of change monitored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventType {
    Create,
    Delete,
    /// Setting of a label (`ON 'L'`) or property (`ON 'L'.'p'`).
    Set,
    /// Removal of a label or property.
    Remove,
}

impl EventType {
    pub fn keyword(self) -> &'static str {
        match self {
            EventType::Create => "CREATE",
            EventType::Delete => "DELETE",
            EventType::Set => "SET",
            EventType::Remove => "REMOVE",
        }
    }
}

/// `<item>`: nodes or relationships.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ItemKind {
    Node,
    Relationship,
}

impl ItemKind {
    pub fn keyword(self) -> &'static str {
        match self {
            ItemKind::Node => "NODE",
            ItemKind::Relationship => "RELATIONSHIP",
        }
    }
}

/// `<granularity>`: `FOR EACH` (item-level) or `FOR ALL` (set-level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    Each,
    All,
}

impl Granularity {
    pub fn keyword(self) -> &'static str {
        match self {
            Granularity::Each => "EACH",
            Granularity::All => "ALL",
        }
    }
}

/// Canonical transition-variable names (renameable via `REFERENCING … AS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionVar {
    Old,
    New,
    OldNodes,
    NewNodes,
    OldRels,
    NewRels,
}

impl TransitionVar {
    pub fn keyword(self) -> &'static str {
        match self {
            TransitionVar::Old => "OLD",
            TransitionVar::New => "NEW",
            TransitionVar::OldNodes => "OLDNODES",
            TransitionVar::NewNodes => "NEWNODES",
            TransitionVar::OldRels => "OLDRELS",
            TransitionVar::NewRels => "NEWRELS",
        }
    }

    pub fn parse(word: &str) -> Option<TransitionVar> {
        Some(match word.to_ascii_uppercase().as_str() {
            "OLD" => TransitionVar::Old,
            "NEW" => TransitionVar::New,
            "OLDNODES" => TransitionVar::OldNodes,
            "NEWNODES" => TransitionVar::NewNodes,
            "OLDRELS" => TransitionVar::OldRels,
            "NEWRELS" => TransitionVar::NewRels,
            _ => return None,
        })
    }
}

/// A complete trigger definition.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerSpec {
    pub name: String,
    pub time: ActionTime,
    pub event: EventType,
    /// The target label (node label or relationship type), paper §4.2
    /// "Targeting".
    pub label: String,
    /// For `SET`/`REMOVE` events: the monitored property (`ON 'L'.'p'`);
    /// `None` means the label itself is the monitored object.
    pub property: Option<String>,
    /// `REFERENCING <var> AS <alias>` renamings.
    pub referencing: Vec<(TransitionVar, String)>,
    pub granularity: Granularity,
    pub item: ItemKind,
    /// `WHEN` condition: a read-only clause pipeline; the condition holds
    /// for an activation when at least one binding row survives it.
    /// Prepared at `CREATE TRIGGER` time, like the body, so an activation
    /// repeats none of the text-invariant work.
    pub condition: Option<Arc<Prepared>>,
    /// The `BEGIN … END` body.
    pub statement: Arc<Prepared>,
}

impl TriggerSpec {
    /// The effective (post-renaming) name of a transition variable.
    pub fn var_name(&self, var: TransitionVar) -> String {
        self.referencing
            .iter()
            .find(|(v, _)| *v == var)
            .map(|(_, alias)| alias.clone())
            .unwrap_or_else(|| var.keyword().to_string())
    }
}

/// The paper's event matrix (§4.2/§5.1), written once:
/// `{node, relationship} × {creation, deletion}` ∪
/// `{label, node-property, relationship-property} × {set, removal}`.
/// Everything between a statement's delta and an activation — dispatch,
/// binding, the triggering graph, the APOC/Memgraph translations — is a
/// function of these ten kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    NodeCreated,
    NodeDeleted,
    RelCreated,
    RelDeleted,
    LabelSet,
    LabelRemoved,
    NodePropSet,
    NodePropRemoved,
    RelPropSet,
    RelPropRemoved,
}

impl EventKind {
    /// Number of kinds (sizes per-kind tables indexed by `kind as usize`).
    pub const COUNT: usize = 10;

    /// The one interpretation of a DDL `(event, item, property?)` triple.
    /// `None` exactly for `SET`/`REMOVE` on a relationship without a
    /// property: relationship types are immutable, so that combination
    /// monitors nothing. A property on a `CREATE`/`DELETE` trigger is
    /// legal and ignored — such a trigger monitors its label.
    pub fn of(event: EventType, item: ItemKind, on_property: bool) -> Option<EventKind> {
        use {EventType::*, ItemKind::*};
        Some(match (event, item, on_property) {
            (Create, Node, _) => EventKind::NodeCreated,
            (Delete, Node, _) => EventKind::NodeDeleted,
            (Create, Relationship, _) => EventKind::RelCreated,
            (Delete, Relationship, _) => EventKind::RelDeleted,
            (Set, Node, false) => EventKind::LabelSet,
            (Remove, Node, false) => EventKind::LabelRemoved,
            (Set, Node, true) => EventKind::NodePropSet,
            (Remove, Node, true) => EventKind::NodePropRemoved,
            (Set, Relationship, true) => EventKind::RelPropSet,
            (Remove, Relationship, true) => EventKind::RelPropRemoved,
            (Set | Remove, Relationship, false) => return None,
        })
    }

    /// Whether the kind monitors a property key (the other six monitor
    /// the target label/type itself).
    pub fn on_property(self) -> bool {
        matches!(
            self,
            EventKind::NodePropSet
                | EventKind::NodePropRemoved
                | EventKind::RelPropSet
                | EventKind::RelPropRemoved
        )
    }
}

impl TriggerSpec {
    /// The event kind this trigger monitors (see [`EventKind::of`]).
    pub fn kind(&self) -> Option<EventKind> {
        EventKind::of(self.event, self.item, self.property.is_some())
    }

    /// The DDL up to and including the `FOR` clause — shared by
    /// [`TriggerSpec::to_ddl`] and `Display`.
    fn write_header(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(
            out,
            "CREATE TRIGGER {} {} {}\nON '{}'",
            self.name,
            self.time.keyword(),
            self.event.keyword(),
            self.label
        )?;
        if let Some(p) = &self.property {
            write!(out, ".'{p}'")?;
        }
        writeln!(out)?;
        for (v, alias) in &self.referencing {
            writeln!(out, "REFERENCING {} AS {alias}", v.keyword())?;
        }
        writeln!(
            out,
            "FOR {} {}",
            self.granularity.keyword(),
            match (self.granularity, self.item) {
                (Granularity::All, ItemKind::Node) => "NODES",
                (Granularity::All, ItemKind::Relationship) => "RELATIONSHIPS",
                (Granularity::Each, k) => k.keyword(),
            }
        )
    }

    /// Regenerate complete, re-parseable Figure 1 DDL (condition and
    /// statement unparsed from their ASTs). `parse_trigger_ddl(spec.to_ddl())`
    /// yields an equivalent spec — the round-trip is tested.
    pub fn to_ddl(&self) -> String {
        let mut out = String::new();
        self.write_header(&mut out)
            .expect("writing to a String cannot fail");
        if let Some(cond) = &self.condition {
            out.push_str(&format!(
                "WHEN {}\n",
                pg_cypher::unparse_query(cond.query())
            ));
        }
        out.push_str(&format!(
            "BEGIN\n  {}\nEND",
            pg_cypher::unparse_query(self.statement.query())
        ));
        out
    }
}

impl fmt::Display for TriggerSpec {
    /// Regenerates Figure 1-style DDL (used by the paper-artifact harness).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_header(f)?;
        if self.condition.is_some() {
            writeln!(f, "WHEN <condition>")?;
        }
        write!(f, "BEGIN <statement> END")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_round_trip() {
        for v in [
            TransitionVar::Old,
            TransitionVar::New,
            TransitionVar::OldNodes,
            TransitionVar::NewNodes,
            TransitionVar::OldRels,
            TransitionVar::NewRels,
        ] {
            assert_eq!(TransitionVar::parse(v.keyword()), Some(v));
        }
        assert_eq!(TransitionVar::parse("nope"), None);
        assert_eq!(
            TransitionVar::parse("newnodes"),
            Some(TransitionVar::NewNodes)
        );
    }

    #[test]
    fn var_name_respects_referencing() {
        let spec = TriggerSpec {
            name: "t".into(),
            time: ActionTime::After,
            event: EventType::Create,
            label: "L".into(),
            property: None,
            referencing: vec![(TransitionVar::New, "fresh".into())],
            granularity: Granularity::Each,
            item: ItemKind::Node,
            condition: None,
            statement: Arc::new(pg_cypher::parse_query("RETURN 1").unwrap().into()),
        };
        assert_eq!(spec.var_name(TransitionVar::New), "fresh");
        assert_eq!(spec.var_name(TransitionVar::Old), "OLD");
        let ddl = spec.to_string();
        assert!(ddl.contains("CREATE TRIGGER t AFTER CREATE"));
        assert!(ddl.contains("REFERENCING NEW AS fresh"));
    }

    #[test]
    fn to_ddl_round_trips() {
        let src = "CREATE TRIGGER rt AFTER SET ON 'Lineage'.'who' FOR EACH NODE
                   WHEN OLD.who <> NEW.who
                   BEGIN CREATE (:Alert {was: OLD.who, now: NEW.who}) END";
        let spec = match crate::ddl::parse_trigger_ddl(src).unwrap() {
            crate::ddl::DdlStatement::CreateTrigger(s) => s,
            _ => panic!(),
        };
        let regenerated = spec.to_ddl();
        let spec2 = match crate::ddl::parse_trigger_ddl(&regenerated).unwrap() {
            crate::ddl::DdlStatement::CreateTrigger(s) => s,
            other => panic!("regenerated DDL failed to parse: {regenerated}\n{other:?}"),
        };
        assert_eq!(spec.name, spec2.name);
        assert_eq!(spec.time, spec2.time);
        assert_eq!(spec.event, spec2.event);
        assert_eq!(spec.label, spec2.label);
        assert_eq!(spec.property, spec2.property);
        assert_eq!(spec.granularity, spec2.granularity);
        assert_eq!(spec.item, spec2.item);
        assert_eq!(spec.condition, spec2.condition);
        assert_eq!(spec.statement, spec2.statement);
    }

    #[test]
    fn paper_triggers_ddl_round_trip() {
        // All pipeline shapes used by the §6.2 triggers must survive
        // to_ddl → parse. (The covid crate depends on us, so inline the
        // two structurally hardest shapes here.)
        for src in [
            "CREATE TRIGGER a AFTER CREATE ON 'Mutation' FOR EACH NODE
             WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect)
             BEGIN CREATE (:Alert{mutation: NEW.name}) END",
            "CREATE TRIGGER b AFTER CREATE ON 'IcuPatient' FOR ALL NODES
             WHEN MATCH (p:IcuPatient)-[:TreatedAt]-(:Hospital{name:'Sacco'})
                  WITH COUNT(DISTINCT p) AS n WHERE n > 50
             BEGIN CREATE (:Alert) END",
        ] {
            let spec = match crate::ddl::parse_trigger_ddl(src).unwrap() {
                crate::ddl::DdlStatement::CreateTrigger(s) => s,
                _ => panic!(),
            };
            let spec2 = match crate::ddl::parse_trigger_ddl(&spec.to_ddl()) {
                Ok(crate::ddl::DdlStatement::CreateTrigger(s)) => s,
                other => panic!("{}:\n{other:?}", spec.to_ddl()),
            };
            assert_eq!(spec.condition, spec2.condition, "{}", spec.to_ddl());
            assert_eq!(spec.statement, spec2.statement);
        }
    }
}
