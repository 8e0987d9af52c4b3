//! Syntax-directed translation **PG-Trigger → Memgraph trigger** (paper
//! §5.2, Figure 3), covering the fifteen supported event kinds.
//!
//! Scheme (Figure 3): `UNWIND` the matching predefined variable (Table 4),
//! inline the condition query, express the condition with openCypher's
//! `CASE` construct producing a `flag`, filter `WHERE flag IS NOT NULL`,
//! then run the trigger statement. "Memgraph moves all the logic inside the
//! openCypher statement."

use crate::system::{CommitPhase, ObjectFilter, OpFilter};
use pg_cypher::ast::Clause;
use pg_cypher::{rename_vars, unparse_clause, unparse_expr, unparse_query, Expr};
use pg_triggers::{
    ActionTime, EventKind, EventType, Granularity, ItemKind, TransitionVar, TriggerSpec,
};
use std::collections::BTreeMap;

/// A translated trigger: Memgraph `CREATE TRIGGER` DDL.
#[derive(Debug, Clone, PartialEq)]
pub struct MemgraphInstall {
    pub name: String,
    /// The full `CREATE TRIGGER … EXECUTE …` text.
    pub ddl: String,
    pub phase: CommitPhase,
    pub warnings: Vec<String>,
}

/// Untranslatable trigger shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum TranslateError {
    Unsupported(String),
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::Unsupported(m) => write!(f, "untranslatable trigger: {m}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Translate a PG-Trigger into Memgraph trigger DDL.
pub fn translate(spec: &TriggerSpec) -> Result<MemgraphInstall, TranslateError> {
    let mut warnings = Vec::new();
    let phase = match spec.time {
        ActionTime::OnCommit => CommitPhase::Before,
        ActionTime::After => CommitPhase::After,
        ActionTime::Detached => {
            warnings.push(
                "DETACHED approximated by AFTER COMMIT (asynchronous, may observe later state)"
                    .into(),
            );
            CommitPhase::After
        }
        ActionTime::Before => {
            warnings.push(
                "BEFORE has no Memgraph equivalent: mapped to BEFORE COMMIT, which sees \
                 post-statement state"
                    .into(),
            );
            CommitPhase::Before
        }
    };
    warnings.push("Memgraph triggers do not cascade (identical to APOC, §5.2)".into());

    let label = &spec.label;
    let var = |s: &str| Expr::Var(s.to_string());
    let lit = |s: &str| Expr::Literal(pg_graph::Value::Str(s.to_string()));

    // Plan: prefix pipeline, item variable, per-item check, event filter.
    struct Plan {
        prefix: String,
        item_var: String,
        check: Expr,
        filter: (ObjectFilter, OpFilter),
        renames: BTreeMap<String, String>,
    }

    let in_labels = |v: &str, label: &str| {
        Expr::Binary(
            pg_cypher::ast::BinOp::In,
            Box::new(lit(label)),
            Box::new(Expr::Func {
                name: "labels".into(),
                args: vec![var(v)],
                distinct: false,
            }),
        )
    };
    let eq_type = |v: &str, label: &str| {
        Expr::Binary(
            pg_cypher::ast::BinOp::Eq,
            Box::new(Expr::Func {
                name: "type".into(),
                args: vec![var(v)],
                distinct: false,
            }),
            Box::new(lit(label)),
        )
    };
    let map_field_eq = |v: &str, field: &str, label: &str| {
        Expr::Binary(
            pg_cypher::ast::BinOp::Eq,
            Box::new(Expr::Prop(Box::new(var(v)), field.to_string())),
            Box::new(lit(label)),
        )
    };

    let mut renames = BTreeMap::new();
    let new_name = spec.var_name(TransitionVar::New);
    let old_name = spec.var_name(TransitionVar::Old);
    let mut plan = match (spec.kind(), &spec.property) {
        (Some(EventKind::NodeCreated), _) => {
            renames.insert(new_name, "newNode".to_string());
            Plan {
                prefix: "UNWIND createdVertices AS newNode".into(),
                item_var: "newNode".into(),
                check: in_labels("newNode", label),
                filter: (ObjectFilter::Vertex, OpFilter::Create),
                renames,
            }
        }
        (Some(EventKind::RelCreated), _) => {
            renames.insert(new_name, "newEdge".to_string());
            Plan {
                prefix: "UNWIND createdEdges AS newEdge".into(),
                item_var: "newEdge".into(),
                check: eq_type("newEdge", label),
                filter: (ObjectFilter::Edge, OpFilter::Create),
                renames,
            }
        }
        (Some(EventKind::NodeDeleted), _) => {
            renames.insert(old_name, "oldNode".to_string());
            Plan {
                prefix: "UNWIND deletedVertices AS oldNode".into(),
                item_var: "oldNode".into(),
                check: Expr::Binary(
                    pg_cypher::ast::BinOp::In,
                    Box::new(lit(label)),
                    Box::new(Expr::Prop(Box::new(var("oldNode")), "__labels".into())),
                ),
                filter: (ObjectFilter::Vertex, OpFilter::Delete),
                renames,
            }
        }
        (Some(EventKind::RelDeleted), _) => {
            renames.insert(old_name, "oldEdge".to_string());
            Plan {
                prefix: "UNWIND deletedEdges AS oldEdge".into(),
                item_var: "oldEdge".into(),
                check: map_field_eq("oldEdge", "__type", label),
                filter: (ObjectFilter::Edge, OpFilter::Delete),
                renames,
            }
        }
        (Some(EventKind::LabelSet), _) => {
            renames.insert(new_name, "newNode".to_string());
            Plan {
                prefix: format!(
                    "UNWIND setVertexLabels AS lblGroup \
                     WITH lblGroup WHERE lblGroup.label = '{label}' \
                     UNWIND lblGroup.vertices AS newNode"
                ),
                item_var: "newNode".into(),
                check: Expr::Literal(pg_graph::Value::Bool(true)),
                filter: (ObjectFilter::Vertex, OpFilter::Update),
                renames,
            }
        }
        (Some(EventKind::LabelRemoved), _) => {
            renames.insert(old_name, "oldNode".to_string());
            renames.insert(new_name, "oldNode".to_string());
            Plan {
                prefix: format!(
                    "UNWIND removedVertexLabels AS lblGroup \
                     WITH lblGroup WHERE lblGroup.label = '{label}' \
                     UNWIND lblGroup.vertices AS oldNode"
                ),
                item_var: "oldNode".into(),
                check: Expr::Literal(pg_graph::Value::Bool(true)),
                filter: (ObjectFilter::Vertex, OpFilter::Update),
                renames,
            }
        }
        (Some(EventKind::NodePropSet), Some(p)) => {
            renames.insert(new_name, "newNode".to_string());
            renames.insert(old_name, "oldProps".to_string());
            Plan {
                prefix: format!(
                    "UNWIND setVertexProperties AS pe \
                     WITH pe WHERE pe.key = '{p}' \
                     WITH pe.vertex AS newNode, {{{p}: pe.old_value}} AS oldProps"
                ),
                item_var: "newNode".into(),
                check: in_labels("newNode", label),
                filter: (ObjectFilter::Vertex, OpFilter::Update),
                renames,
            }
        }
        (Some(EventKind::NodePropRemoved), Some(p)) => {
            renames.insert(new_name, "newNode".to_string());
            renames.insert(old_name, "oldProps".to_string());
            Plan {
                prefix: format!(
                    "UNWIND removedVertexProperties AS pe \
                     WITH pe WHERE pe.key = '{p}' \
                     WITH pe.vertex AS newNode, {{{p}: pe.old_value}} AS oldProps"
                ),
                item_var: "newNode".into(),
                check: in_labels("newNode", label),
                filter: (ObjectFilter::Vertex, OpFilter::Update),
                renames,
            }
        }
        (Some(EventKind::RelPropSet), Some(p)) => {
            renames.insert(new_name, "newEdge".to_string());
            renames.insert(old_name, "oldProps".to_string());
            Plan {
                prefix: format!(
                    "UNWIND setEdgeProperties AS pe \
                     WITH pe WHERE pe.key = '{p}' \
                     WITH pe.edge AS newEdge, {{{p}: pe.old_value}} AS oldProps"
                ),
                item_var: "newEdge".into(),
                check: eq_type("newEdge", label),
                filter: (ObjectFilter::Edge, OpFilter::Update),
                renames,
            }
        }
        (Some(EventKind::RelPropRemoved), Some(p)) => {
            renames.insert(new_name, "newEdge".to_string());
            renames.insert(old_name, "oldProps".to_string());
            Plan {
                prefix: format!(
                    "UNWIND removedEdgeProperties AS pe \
                     WITH pe WHERE pe.key = '{p}' \
                     WITH pe.edge AS newEdge, {{{p}: pe.old_value}} AS oldProps"
                ),
                item_var: "newEdge".into(),
                check: eq_type("newEdge", label),
                filter: (ObjectFilter::Edge, OpFilter::Update),
                renames,
            }
        }
        (None, _) | (_, None) => {
            return Err(TranslateError::Unsupported(format!(
                "event {:?} on {:?} with property {:?}",
                spec.event, spec.item, spec.property
            )))
        }
    };

    // FOR ALL: collect into a list after the per-item check.
    if spec.granularity == Granularity::All {
        if spec.kind().is_some_and(EventKind::on_property) {
            return Err(TranslateError::Unsupported(
                "FOR ALL with property events: predefined variables cannot deliver aligned \
                 OLD/NEW item sets"
                    .into(),
            ));
        }
        let unit = plan.item_var.clone();
        let list_var = format!("{unit}List");
        plan.prefix = format!(
            "{} WITH {unit} WHERE {} WITH collect({unit}) AS {list_var}",
            plan.prefix,
            unparse_expr(&plan.check),
        );
        plan.check = Expr::Binary(
            pg_cypher::ast::BinOp::Gt,
            Box::new(Expr::Func {
                name: "size".into(),
                args: vec![var(&list_var)],
                distinct: false,
            }),
            Box::new(Expr::Literal(pg_graph::Value::Int(0))),
        );
        let (new_set, old_set) = match spec.item {
            ItemKind::Node => (TransitionVar::NewNodes, TransitionVar::OldNodes),
            ItemKind::Relationship => (TransitionVar::NewRels, TransitionVar::OldRels),
        };
        plan.renames.clear();
        match spec.event {
            EventType::Create | EventType::Set => {
                plan.renames
                    .insert(spec.var_name(new_set), list_var.clone());
            }
            EventType::Delete | EventType::Remove => {
                plan.renames
                    .insert(spec.var_name(old_set), list_var.clone());
            }
        }
        plan.item_var = list_var;
    }

    // Condition: bare predicate → CASE flag (Figure 3); pipeline →
    // condition_query before the flag computation.
    let mut check = plan.check.clone();
    let mut pipeline = String::new();
    if let Some(cond) = &spec.condition {
        let renamed = rename_vars(cond.query(), &plan.renames);
        match renamed.clauses.as_slice() {
            [Clause::Where(pred)] => {
                check = Expr::Binary(
                    pg_cypher::ast::BinOp::And,
                    Box::new(check),
                    Box::new(pred.clone()),
                );
            }
            clauses => {
                pipeline = clauses
                    .iter()
                    .map(unparse_clause)
                    .collect::<Vec<_>>()
                    .join(" ");
            }
        }
    }

    // Figure 3: WITH CASE WHEN <check> THEN <item> END AS flag, <carried>…
    // WHERE flag IS NOT NULL, then the statement.
    let statement = rename_vars(spec.statement.query(), &plan.renames);
    let stmt_text = unparse_query(&statement);
    // Variables the statement needs carried through the WITH (the item plus
    // condition bindings). We conservatively carry `*`.
    let exec = format!(
        "{prefix}{pipe} WITH *, CASE WHEN {check} THEN {item} END AS flag \
         WHERE flag IS NOT NULL {stmt}",
        prefix = plan.prefix,
        pipe = if pipeline.is_empty() {
            String::new()
        } else {
            format!(" {pipeline}")
        },
        check = unparse_expr(&check),
        item = plan.item_var,
        stmt = stmt_text,
    );

    let on_clause = {
        let (obj, op) = plan.filter;
        let obj_s = match obj {
            ObjectFilter::Vertex => "() ",
            ObjectFilter::Edge => "--> ",
            ObjectFilter::Any => "",
        };
        let op_s = match op {
            OpFilter::Create => "CREATE",
            OpFilter::Update => "UPDATE",
            OpFilter::Delete => "DELETE",
        };
        format!("ON {obj_s}{op_s}")
    };
    let phase_s = match phase {
        CommitPhase::Before => "BEFORE COMMIT",
        CommitPhase::After => "AFTER COMMIT",
    };
    let ddl = format!(
        "CREATE TRIGGER {name} {on_clause} {phase_s} EXECUTE {exec}",
        name = spec.name,
    );
    Ok(MemgraphInstall {
        name: spec.name.clone(),
        ddl,
        phase,
        warnings,
    })
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
    fn figure_3_shape() {
        let t = spec(
            "CREATE TRIGGER NewCriticalMutation AFTER CREATE ON 'Mutation' FOR EACH NODE
             WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect)
             BEGIN CREATE (:Alert{mutation: NEW.name}) END",
        );
        let out = translate(&t).unwrap();
        assert!(
            out.ddl.starts_with(
                "CREATE TRIGGER NewCriticalMutation ON () CREATE AFTER COMMIT EXECUTE"
            ),
            "{}",
            out.ddl
        );
        assert!(
            out.ddl.contains("UNWIND createdVertices AS newNode"),
            "{}",
            out.ddl
        );
        assert!(out.ddl.contains("CASE WHEN"), "{}", out.ddl);
        assert!(out.ddl.contains("flag IS NOT NULL"), "{}", out.ddl);
        assert!(out.ddl.contains("newNode.name"), "{}", out.ddl);
        assert!(!out.ddl.contains("NEW."), "{}", out.ddl);
    }

    #[test]
    fn all_fifteen_event_kinds_translate() {
        // {vertex, edge} × {create, delete} + label set/remove +
        // {vertex, edge} × property {set, remove}; granularities both.
        let cases = [
            ("AFTER CREATE ON 'L' FOR EACH NODE", "createdVertices"),
            ("AFTER CREATE ON 'L' FOR EACH RELATIONSHIP", "createdEdges"),
            ("AFTER DELETE ON 'L' FOR EACH NODE", "deletedVertices"),
            ("AFTER DELETE ON 'L' FOR EACH RELATIONSHIP", "deletedEdges"),
            ("AFTER SET ON 'L' FOR EACH NODE", "setVertexLabels"),
            ("AFTER REMOVE ON 'L' FOR EACH NODE", "removedVertexLabels"),
            ("AFTER SET ON 'L'.'p' FOR EACH NODE", "setVertexProperties"),
            (
                "AFTER REMOVE ON 'L'.'p' FOR EACH NODE",
                "removedVertexProperties",
            ),
            (
                "AFTER SET ON 'L'.'p' FOR EACH RELATIONSHIP",
                "setEdgeProperties",
            ),
            (
                "AFTER REMOVE ON 'L'.'p' FOR EACH RELATIONSHIP",
                "removedEdgeProperties",
            ),
            ("AFTER CREATE ON 'L' FOR ALL NODES", "collect(newNode)"),
            ("AFTER DELETE ON 'L' FOR ALL NODES", "collect(oldNode)"),
            (
                "AFTER CREATE ON 'L' FOR ALL RELATIONSHIPS",
                "collect(newEdge)",
            ),
            (
                "AFTER DELETE ON 'L' FOR ALL RELATIONSHIPS",
                "collect(oldEdge)",
            ),
            ("AFTER SET ON 'L' FOR ALL NODES", "collect(newNode)"),
        ];
        for (middle, expect) in cases {
            let t = spec(&format!("CREATE TRIGGER t {middle} BEGIN CREATE (:X) END"));
            let out = translate(&t).unwrap_or_else(|e| panic!("{middle}: {e}"));
            assert!(out.ddl.contains(expect), "{middle}: {}", out.ddl);
        }
    }

    #[test]
    fn oncommit_is_before_commit() {
        let t = spec("CREATE TRIGGER t ONCOMMIT CREATE ON 'L' FOR EACH NODE BEGIN CREATE (:X) END");
        let out = translate(&t).unwrap();
        assert_eq!(out.phase, CommitPhase::Before);
        assert!(out.ddl.contains("BEFORE COMMIT"));
    }

    #[test]
    fn old_property_binding() {
        let t = spec(
            "CREATE TRIGGER who AFTER SET ON 'Lineage'.'whoDesignation' FOR EACH NODE
             WHEN OLD.whoDesignation <> NEW.whoDesignation
             BEGIN CREATE (:Alert {was: OLD.whoDesignation}) END",
        );
        let out = translate(&t).unwrap();
        assert!(out.ddl.contains("pe.key = 'whoDesignation'"), "{}", out.ddl);
        assert!(out.ddl.contains("oldProps.whoDesignation"), "{}", out.ddl);
    }

    #[test]
    fn unsupported_for_all_property_events() {
        let t = spec("CREATE TRIGGER t AFTER SET ON 'L'.'p' FOR ALL NODES BEGIN CREATE (:X) END");
        assert!(matches!(translate(&t), Err(TranslateError::Unsupported(_))));
    }
}
