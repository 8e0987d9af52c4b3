//! Syntax-directed translation **PG-Trigger → APOC trigger** (paper §5.1,
//! Figure 2), covering all ten event kinds:
//! `{node, relationship} × {creation, deletion}` ∪
//! `{label, node-property, relationship-property} × {set, removal}`.
//!
//! Scheme (Figure 2): the APOC statement `UNWIND`s the transition metadata
//! for the trigger's event, renames the affected item to a local variable
//! (`cNodes` in the paper), inlines the condition query (when present) as a
//! filtering pipeline, and wraps the condition predicate and the trigger
//! statement in `apoc.do.when(<label-check AND condition>, '<statement>',
//! '', {<operands>})`. Everything but the Table 2 vocabulary, the
//! phase mapping and the `apoc.do.when` assembly is the lowering shared
//! with the Memgraph translator ([`pg_triggers::lowering`]).
//!
//! Divergence from the paper's hand translation: for property events the
//! paper destructures the ⟨node, property, old, new⟩ quadruple into scalar
//! `oldValue`/`newValue` variables; we instead bind `OLD` to the one-entry
//! map `{<property>: old}`, which lets the trigger's `OLD.<property>`
//! references work unchanged. Both are syntax-directed; ours avoids
//! rewriting property accesses. `OLD.<other-property>` yields `null` under
//! APOC (the metadata only carries the changed property) — a documented
//! APOC limitation relative to native PG-Triggers.

use crate::system::Phase;
use pg_cypher::ast::visit::{self, Node};
use pg_cypher::ast::{Clause, Expr, ProjItem, RemoveItem, SetItem};
use pg_cypher::{unparse_expr, unparse_query};
use pg_triggers::lowering::{lower, Vocabulary};
use pg_triggers::{ActionTime, EventKind::*, TriggerSpec};
use std::collections::BTreeSet;

pub use pg_triggers::lowering::TranslateError;

/// A translated trigger: the arguments of `apoc.trigger.install`.
#[derive(Debug, Clone, PartialEq)]
pub struct ApocInstall {
    pub name: String,
    pub statement: String,
    pub phase: Phase,
    /// Semantic caveats of the translation (APOC limitations per §5.1).
    pub warnings: Vec<String>,
}

/// Paper Table 2: the parameters APOC passes each event kind's transition
/// metadata in, and the item variable Figure 2 unwinds it to.
const VOCABULARY: Vocabulary = Vocabulary {
    metadata: "APOC metadata",
    sources: [
        (NodeCreated, "cNodes", "UNWIND $createdNodes AS cNodes"),
        (NodeDeleted, "dNodes", "UNWIND $deletedNodes AS dNodes"),
        (RelCreated, "cRels", "UNWIND $createdRelationships AS cRels"),
        (RelDeleted, "dRels", "UNWIND $deletedRelationships AS dRels"),
        (
            LabelSet,
            "cNodes",
            "UNWIND $assignedLabels['{key}'] AS cNodes",
        ),
        (
            LabelRemoved,
            "cNodes",
            "UNWIND $removedLabels['{key}'] AS cNodes",
        ),
        (
            NodePropSet,
            "node",
            "UNWIND $assignedNodeProperties['{key}'] AS aProp \
             WITH aProp.node AS node, {{key}: aProp.old} AS oldProps",
        ),
        (
            NodePropRemoved,
            "node",
            "UNWIND $removedNodeProperties['{key}'] AS aProp \
             WITH aProp.node AS node, {{key}: aProp.old} AS oldProps",
        ),
        (
            RelPropSet,
            "rel",
            "UNWIND $assignedRelProperties['{key}'] AS aProp \
             WITH aProp.relationship AS rel, {{key}: aProp.old} AS oldProps",
        ),
        (
            RelPropRemoved,
            "rel",
            "UNWIND $removedRelProperties['{key}'] AS aProp \
             WITH aProp.relationship AS rel, {{key}: aProp.old} AS oldProps",
        ),
    ],
    node_label_check: |node, label| Expr::HasLabel(Box::new(node), vec![label.to_string()]),
};

/// Translate a PG-Trigger into an APOC trigger installation.
pub fn translate(spec: &TriggerSpec) -> Result<ApocInstall, TranslateError> {
    let mut warnings = Vec::new();
    let phase = match spec.time {
        // APOC's `before` runs at the commit point inside the transaction —
        // exactly the paper's ONCOMMIT (§5.1).
        ActionTime::OnCommit => Phase::Before,
        // The APOC community discourages `after` and advises `afterAsync`
        // (§5.1); we follow the paper's choice.
        ActionTime::After => Phase::AfterAsync,
        ActionTime::Detached => {
            warnings.push(
                "DETACHED approximated by afterAsync: the autonomous transaction may observe \
                 state later than the activating commit"
                    .to_string(),
            );
            Phase::AfterAsync
        }
        ActionTime::Before => {
            warnings.push(
                "BEFORE has no APOC equivalent: mapped to the (pre-commit) 'before' phase, \
                 which sees post-statement state and cannot veto cleanly"
                    .to_string(),
            );
            Phase::Before
        }
    };
    warnings.push(
        "APOC triggers do not cascade (trigger-generated changes never re-activate triggers)"
            .to_string(),
    );
    let lowered = lower(spec, &VOCABULARY)?;
    warnings.extend(lowered.warnings.iter().cloned());

    // Operands: the names the statement or the check reference that the
    // prefix or the condition pipeline binds.
    let mut bound: BTreeSet<String> = lowered.binds.iter().cloned().collect();
    if let Some(pipeline) = &lowered.pipeline {
        bound_names(&pipeline.clauses, &mut bound);
    }
    let mut referenced = BTreeSet::new();
    referenced_names(&lowered.statement.clauses, &mut referenced);
    expr_names(&lowered.check, &mut referenced);
    let mut args: Vec<&str> = bound
        .intersection(&referenced)
        .map(String::as_str)
        .collect();
    if args.is_empty() {
        args.push(lowered.item());
    }
    let args: Vec<String> = args.iter().map(|v| format!("{v}: {v}")).collect();

    let then = unparse_query(&lowered.statement)
        .replace('\\', "\\\\")
        .replace('\'', "\\'");
    let statement = format!(
        "{} CALL apoc.do.when({}, '{then}', '', {{{}}}) YIELD value RETURN *",
        lowered.head,
        unparse_expr(&lowered.check),
        args.join(", "),
    );
    Ok(ApocInstall {
        name: spec.name.clone(),
        statement,
        phase,
        warnings,
    })
}

/// The names in scope after a pipeline's clauses, given those in scope
/// before (`out`): the variables of `MATCH`, `CREATE` and `MERGE` patterns
/// and `UNWIND` aliases join it; a `WITH`/`RETURN` replaces it by its
/// columns, or with `*` adds them.
fn bound_names(clauses: &[Clause], out: &mut BTreeSet<String>) {
    visit::clauses(clauses, &mut |node: Node| match node {
        Node::Clause(c) => {
            match c {
                Clause::Unwind { alias, .. } => {
                    out.insert(alias.clone());
                }
                Clause::With(p) | Clause::Return(p) => {
                    if !p.star {
                        out.clear();
                    }
                    out.extend(p.items.iter().map(ProjItem::name));
                }
                _ => {}
            }
            matches!(
                c,
                Clause::Match { .. } | Clause::Create { .. } | Clause::Merge { .. }
            )
        }
        Node::Pattern(p) => {
            out.extend(p.vars().cloned());
            false
        }
        Node::Expr(_) => false,
    });
}

/// Names a statement references: variables, node-pattern labels (which may
/// name a transition variable) and the variables `SET`/`REMOVE` items
/// target. Aliases, loop variables and `SKIP`/`LIMIT` do not count.
fn referenced_names(clauses: &[Clause], out: &mut BTreeSet<String>) {
    let targets = |items: &[SetItem]| -> Vec<String> {
        items
            .iter()
            .filter_map(|i| match i {
                SetItem::Labels { var, .. }
                | SetItem::ReplaceProps { var, .. }
                | SetItem::MergeProps { var, .. } => Some(var.clone()),
                SetItem::Prop { .. } => None,
            })
            .collect()
    };
    visit::clauses(clauses, &mut |node: Node| {
        match node {
            Node::Clause(Clause::Set { items }) => out.extend(targets(items)),
            Node::Clause(Clause::Merge {
                on_create,
                on_match,
                ..
            }) => {
                out.extend(targets(on_create));
                out.extend(targets(on_match));
            }
            Node::Clause(Clause::Remove { items }) => {
                out.extend(items.iter().filter_map(|i| match i {
                    RemoveItem::Labels { var, .. } => Some(var.clone()),
                    RemoveItem::Prop { .. } => None,
                }))
            }
            Node::Clause(Clause::With(p) | Clause::Return(p)) => {
                let keys = p.order_by.iter().map(|(e, _)| e);
                let exprs = p.items.iter().map(|i| &i.expr).chain(keys);
                exprs
                    .chain(&p.where_clause)
                    .for_each(|e| expr_names(e, out));
                return false;
            }
            Node::Clause(_) => {}
            Node::Pattern(p) => {
                out.extend(p.nodes().flat_map(|n| &n.labels).cloned());
                out.extend(p.vars().cloned());
            }
            Node::Expr(e) => {
                expr_names(e, out);
                return false;
            }
        }
        true
    });
}

/// An expression's free variables, plus the node labels of its patterns
/// when it is an `EXISTS`.
fn expr_names(e: &Expr, out: &mut BTreeSet<String>) {
    let mut vars = Vec::new();
    e.collect_vars(&mut vars);
    out.extend(vars);
    if let Expr::ExistsSubquery(patterns, _) = e {
        out.extend(
            patterns
                .iter()
                .flat_map(|p| p.nodes())
                .flat_map(|n| &n.labels)
                .cloned(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_triggers::{parse_trigger_ddl, DdlStatement};

    fn spec(src: &str) -> TriggerSpec {
        match parse_trigger_ddl(src).unwrap() {
            DdlStatement::CreateTrigger(s) => s,
            _ => panic!(),
        }
    }

    #[test]
    fn figure_2_node_creation_shape() {
        let t = spec(
            "CREATE TRIGGER NewCriticalMutation AFTER CREATE ON 'Mutation' FOR EACH NODE
             WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect)
             BEGIN CREATE (:Alert{desc:'New critical mutation', mutation:NEW.name}) END",
        );
        let out = translate(&t).unwrap();
        assert_eq!(out.phase, Phase::AfterAsync);
        assert!(
            out.statement.starts_with("UNWIND $createdNodes AS cNodes"),
            "{}",
            out.statement
        );
        assert!(
            out.statement.contains("apoc.do.when((cNodes:Mutation AND"),
            "{}",
            out.statement
        );
        assert!(out.statement.contains("cNodes.name"), "{}", out.statement);
        assert!(!out.statement.contains("NEW"), "{}", out.statement);
    }

    #[test]
    fn all_ten_event_kinds_translate() {
        let cases = [
            ("AFTER CREATE ON 'L' FOR EACH NODE", "$createdNodes"),
            (
                "AFTER CREATE ON 'L' FOR EACH RELATIONSHIP",
                "$createdRelationships",
            ),
            ("AFTER DELETE ON 'L' FOR EACH NODE", "$deletedNodes"),
            (
                "AFTER DELETE ON 'L' FOR EACH RELATIONSHIP",
                "$deletedRelationships",
            ),
            ("AFTER SET ON 'L' FOR EACH NODE", "$assignedLabels['L']"),
            ("AFTER REMOVE ON 'L' FOR EACH NODE", "$removedLabels['L']"),
            (
                "AFTER SET ON 'L'.'p' FOR EACH NODE",
                "$assignedNodeProperties['p']",
            ),
            (
                "AFTER REMOVE ON 'L'.'p' FOR EACH NODE",
                "$removedNodeProperties['p']",
            ),
            (
                "AFTER SET ON 'L'.'p' FOR EACH RELATIONSHIP",
                "$assignedRelProperties['p']",
            ),
            (
                "AFTER REMOVE ON 'L'.'p' FOR EACH RELATIONSHIP",
                "$removedRelProperties['p']",
            ),
        ];
        for (middle, expect) in cases {
            let t = spec(&format!("CREATE TRIGGER t {middle} BEGIN CREATE (:X) END"));
            let out = translate(&t).unwrap_or_else(|e| panic!("{middle}: {e}"));
            assert!(
                out.statement.contains(expect),
                "{middle}: {}",
                out.statement
            );
        }
    }

    #[test]
    fn oncommit_maps_to_before_phase() {
        let t = spec("CREATE TRIGGER t ONCOMMIT CREATE ON 'L' FOR EACH NODE BEGIN CREATE (:X) END");
        assert_eq!(translate(&t).unwrap().phase, Phase::Before);
    }

    #[test]
    fn for_all_collects() {
        let t = spec(
            "CREATE TRIGGER t AFTER CREATE ON 'IcuPatient' FOR ALL NODES
             BEGIN CREATE (:Wave {n: size(NEWNODES)}) END",
        );
        let out = translate(&t).unwrap();
        assert!(
            out.statement.contains("collect(cNodes) AS cNodesList"),
            "{}",
            out.statement
        );
        assert!(
            out.statement.contains("size(cNodesList)"),
            "{}",
            out.statement
        );
        assert!(!out.statement.contains("NEWNODES"), "{}", out.statement);
    }

    #[test]
    fn condition_pipeline_becomes_condition_query() {
        let t = spec(
            "CREATE TRIGGER t AFTER CREATE ON 'IcuPatient' FOR ALL NODES
             WHEN MATCH (p:IcuPatient) WITH COUNT(p) AS n WHERE n > 50
             BEGIN CREATE (:Alert) END",
        );
        let out = translate(&t).unwrap();
        assert!(
            out.statement.contains("MATCH (p:IcuPatient)"),
            "{}",
            out.statement
        );
        assert!(
            // the projection carries the item list (the carry rule)
            out.statement
                .contains("WITH count(p) AS n, cNodesList WHERE (n > 50)"),
            "{}",
            out.statement
        );
    }

    #[test]
    fn old_property_binds_map() {
        let t = spec(
            "CREATE TRIGGER who AFTER SET ON 'Lineage'.'whoDesignation' FOR EACH NODE
             WHEN OLD.whoDesignation <> NEW.whoDesignation
             BEGIN CREATE (:Alert {was: OLD.whoDesignation}) END",
        );
        let out = translate(&t).unwrap();
        assert!(
            out.statement
                .contains("{whoDesignation: aProp.old} AS oldProps"),
            "{}",
            out.statement
        );
        assert!(
            out.statement.contains("oldProps.whoDesignation"),
            "{}",
            out.statement
        );
        assert!(
            out.statement.contains("node.whoDesignation"),
            "{}",
            out.statement
        );
    }

    #[test]
    fn for_all_property_events_unsupported() {
        let t = spec("CREATE TRIGGER t AFTER SET ON 'L'.'p' FOR ALL NODES BEGIN CREATE (:X) END");
        assert!(matches!(translate(&t), Err(TranslateError::Unsupported(_))));
    }

    #[test]
    fn warnings_document_limitations() {
        let t = spec("CREATE TRIGGER t DETACHED CREATE ON 'L' FOR EACH NODE BEGIN CREATE (:X) END");
        let out = translate(&t).unwrap();
        assert!(out.warnings.iter().any(|w| w.contains("DETACHED")));
        assert!(out.warnings.iter().any(|w| w.contains("cascade")));
    }
}
