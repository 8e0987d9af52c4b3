//! Syntax-directed translation **PG-Trigger → Memgraph trigger** (paper
//! §5.2, Figure 3), covering the fifteen supported event kinds.
//!
//! Scheme (Figure 3): `UNWIND` the matching predefined variable (Table 4),
//! inline the condition query, express the condition with openCypher's
//! `CASE` construct producing a `flag`, filter `WHERE flag IS NOT NULL`,
//! then run the trigger statement. "Memgraph moves all the logic inside the
//! openCypher statement." Everything but the Table 4 vocabulary, the
//! `ON` filter, the commit-phase mapping and the `CASE … AS flag`
//! assembly is the lowering shared with the APOC translator
//! ([`pg_triggers::lowering`]).

use crate::system::CommitPhase;
use pg_cypher::ast::BinOp;
use pg_cypher::{unparse_expr, unparse_query, Expr};
use pg_graph::Value;
use pg_triggers::lowering::{lower, Vocabulary};
use pg_triggers::{ActionTime, EventKind::*, EventType, ItemKind, TriggerSpec};

pub use pg_triggers::lowering::TranslateError;

/// A translated trigger: Memgraph `CREATE TRIGGER` DDL.
#[derive(Debug, Clone, PartialEq)]
pub struct MemgraphInstall {
    pub name: String,
    /// The full `CREATE TRIGGER … EXECUTE …` text.
    pub ddl: String,
    pub phase: CommitPhase,
    pub warnings: Vec<String>,
}

/// Paper Table 4: the predefined variable Memgraph delivers each event
/// kind's changes in, and the item variable Figure 3 unwinds it to.
const VOCABULARY: Vocabulary = Vocabulary {
    metadata: "predefined variables",
    sources: [
        (NodeCreated, "newNode", "UNWIND createdVertices AS newNode"),
        (NodeDeleted, "oldNode", "UNWIND deletedVertices AS oldNode"),
        (RelCreated, "newEdge", "UNWIND createdEdges AS newEdge"),
        (RelDeleted, "oldEdge", "UNWIND deletedEdges AS oldEdge"),
        (
            LabelSet,
            "newNode",
            "UNWIND setVertexLabels AS lblGroup \
             WITH lblGroup WHERE lblGroup.label = '{key}' \
             UNWIND lblGroup.vertices AS newNode",
        ),
        (
            LabelRemoved,
            "oldNode",
            "UNWIND removedVertexLabels AS lblGroup \
             WITH lblGroup WHERE lblGroup.label = '{key}' \
             UNWIND lblGroup.vertices AS oldNode",
        ),
        (
            NodePropSet,
            "newNode",
            "UNWIND setVertexProperties AS pe WITH pe WHERE pe.key = '{key}' \
             WITH pe.vertex AS newNode, {{key}: pe.old_value} AS oldProps",
        ),
        (
            NodePropRemoved,
            "newNode",
            "UNWIND removedVertexProperties AS pe WITH pe WHERE pe.key = '{key}' \
             WITH pe.vertex AS newNode, {{key}: pe.old_value} AS oldProps",
        ),
        (
            RelPropSet,
            "newEdge",
            "UNWIND setEdgeProperties AS pe WITH pe WHERE pe.key = '{key}' \
             WITH pe.edge AS newEdge, {{key}: pe.old_value} AS oldProps",
        ),
        (
            RelPropRemoved,
            "newEdge",
            "UNWIND removedEdgeProperties AS pe WITH pe WHERE pe.key = '{key}' \
             WITH pe.edge AS newEdge, {{key}: pe.old_value} AS oldProps",
        ),
    ],
    node_label_check: |node, label| {
        let labels = Expr::Func {
            name: "labels".into(),
            args: vec![node],
            distinct: false,
        };
        let label = Expr::Literal(Value::Str(label.to_string()));
        Expr::Binary(BinOp::In, Box::new(label), Box::new(labels))
    },
};

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
    let lowered = lower(spec, &VOCABULARY)?;
    warnings.extend(lowered.warnings.iter().cloned());

    let object = match spec.item {
        ItemKind::Node => "()",
        ItemKind::Relationship => "-->",
    };
    let operation = match spec.event {
        EventType::Create => "CREATE",
        EventType::Delete => "DELETE",
        EventType::Set | EventType::Remove => "UPDATE",
    };
    let commit = match phase {
        CommitPhase::Before => "BEFORE COMMIT",
        CommitPhase::After => "AFTER COMMIT",
    };
    // Figure 3: WITH CASE WHEN <check> THEN <item> END AS flag … WHERE flag
    // IS NOT NULL, then the statement; `*` carries what the statement needs.
    let ddl = format!(
        "CREATE TRIGGER {} ON {object} {operation} {commit} EXECUTE {} \
         WITH *, CASE WHEN {} THEN {} END AS flag WHERE flag IS NOT NULL {}",
        spec.name,
        lowered.head,
        unparse_expr(&lowered.check),
        lowered.item(),
        unparse_query(&lowered.statement),
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
