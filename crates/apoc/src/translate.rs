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
//! '', {<operands>})`.
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
use pg_cypher::ast::{Clause, Expr, PathPattern, Query};
use pg_cypher::{rename_vars, unparse_clause, unparse_expr, unparse_query};
use pg_triggers::{
    ActionTime, EventKind, EventType, Granularity, ItemKind, TransitionVar, TriggerSpec,
};
use std::collections::{BTreeMap, BTreeSet};

/// A translated trigger: the arguments of `apoc.trigger.install`.
#[derive(Debug, Clone, PartialEq)]
pub struct ApocInstall {
    pub name: String,
    pub statement: String,
    pub phase: Phase,
    /// Semantic caveats of the translation (APOC limitations per §5.1).
    pub warnings: Vec<String>,
}

/// Errors for trigger shapes APOC cannot express.
#[derive(Debug, Clone, PartialEq)]
pub enum TranslateError {
    Unsupported(String),
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::Unsupported(msg) => write!(f, "untranslatable trigger: {msg}"),
        }
    }
}

impl std::error::Error for TranslateError {}

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

    // ------------------------------------------------------------------
    // Event plan: UNWIND source, local variable names, label check.
    // ------------------------------------------------------------------
    struct Plan {
        /// prefix clauses (text) binding the per-item variables
        prefix: String,
        /// the item variable visible to condition/statement
        item_var: String,
        /// per-item label/type check (before collection for FOR ALL)
        label_check: Expr,
        /// renames applied to condition + statement
        renames: BTreeMap<String, String>,
    }

    let var = |s: &str| Expr::Var(s.to_string());
    let lit = |s: &str| Expr::Literal(pg_graph::Value::Str(s.to_string()));
    let label = spec.label.clone();

    let each_plan = |spec: &TriggerSpec| -> Result<Plan, TranslateError> {
        let mut renames = BTreeMap::new();
        let p = match (spec.kind(), &spec.property) {
            (Some(EventKind::NodeCreated), _) => {
                renames.insert(spec.var_name(TransitionVar::New), "cNodes".to_string());
                Plan {
                    prefix: "UNWIND $createdNodes AS cNodes".to_string(),
                    item_var: "cNodes".to_string(),
                    label_check: Expr::HasLabel(Box::new(var("cNodes")), vec![label.clone()]),
                    renames,
                }
            }
            (Some(EventKind::RelCreated), _) => {
                renames.insert(spec.var_name(TransitionVar::New), "cRels".to_string());
                Plan {
                    prefix: "UNWIND $createdRelationships AS cRels".to_string(),
                    item_var: "cRels".to_string(),
                    label_check: Expr::Binary(
                        pg_cypher::ast::BinOp::Eq,
                        Box::new(Expr::Func {
                            name: "type".into(),
                            args: vec![var("cRels")],
                            distinct: false,
                        }),
                        Box::new(lit(&label)),
                    ),
                    renames,
                }
            }
            (Some(EventKind::NodeDeleted), _) => {
                renames.insert(spec.var_name(TransitionVar::Old), "dNodes".to_string());
                Plan {
                    prefix: "UNWIND $deletedNodes AS dNodes".to_string(),
                    item_var: "dNodes".to_string(),
                    label_check: Expr::Binary(
                        pg_cypher::ast::BinOp::In,
                        Box::new(lit(&label)),
                        Box::new(Expr::Prop(Box::new(var("dNodes")), "__labels".into())),
                    ),
                    renames,
                }
            }
            (Some(EventKind::RelDeleted), _) => {
                renames.insert(spec.var_name(TransitionVar::Old), "dRels".to_string());
                Plan {
                    prefix: "UNWIND $deletedRelationships AS dRels".to_string(),
                    item_var: "dRels".to_string(),
                    label_check: Expr::Binary(
                        pg_cypher::ast::BinOp::Eq,
                        Box::new(Expr::Prop(Box::new(var("dRels")), "__type".into())),
                        Box::new(lit(&label)),
                    ),
                    renames,
                }
            }
            (Some(EventKind::LabelSet), _) => {
                renames.insert(spec.var_name(TransitionVar::New), "cNodes".to_string());
                Plan {
                    prefix: format!("UNWIND $assignedLabels['{label}'] AS cNodes"),
                    item_var: "cNodes".to_string(),
                    label_check: Expr::Literal(pg_graph::Value::Bool(true)),
                    renames,
                }
            }
            (Some(EventKind::LabelRemoved), _) => {
                renames.insert(spec.var_name(TransitionVar::Old), "cNodes".to_string());
                renames.insert(spec.var_name(TransitionVar::New), "cNodes".to_string());
                Plan {
                    prefix: format!("UNWIND $removedLabels['{label}'] AS cNodes"),
                    item_var: "cNodes".to_string(),
                    label_check: Expr::Literal(pg_graph::Value::Bool(true)),
                    renames,
                }
            }
            (Some(EventKind::NodePropSet), Some(p)) => {
                renames.insert(spec.var_name(TransitionVar::New), "node".to_string());
                renames.insert(spec.var_name(TransitionVar::Old), "oldProps".to_string());
                Plan {
                    prefix: format!(
                        "UNWIND $assignedNodeProperties['{p}'] AS aProp \
                         WITH aProp.node AS node, {{{p}: aProp.old}} AS oldProps"
                    ),
                    item_var: "node".to_string(),
                    label_check: Expr::HasLabel(Box::new(var("node")), vec![label.clone()]),
                    renames,
                }
            }
            (Some(EventKind::NodePropRemoved), Some(p)) => {
                renames.insert(spec.var_name(TransitionVar::New), "node".to_string());
                renames.insert(spec.var_name(TransitionVar::Old), "oldProps".to_string());
                Plan {
                    prefix: format!(
                        "UNWIND $removedNodeProperties['{p}'] AS aProp \
                         WITH aProp.node AS node, {{{p}: aProp.old}} AS oldProps"
                    ),
                    item_var: "node".to_string(),
                    label_check: Expr::HasLabel(Box::new(var("node")), vec![label.clone()]),
                    renames,
                }
            }
            (Some(EventKind::RelPropSet), Some(p)) => {
                renames.insert(spec.var_name(TransitionVar::New), "rel".to_string());
                renames.insert(spec.var_name(TransitionVar::Old), "oldProps".to_string());
                Plan {
                    prefix: format!(
                        "UNWIND $assignedRelProperties['{p}'] AS aProp \
                         WITH aProp.relationship AS rel, {{{p}: aProp.old}} AS oldProps"
                    ),
                    item_var: "rel".to_string(),
                    label_check: Expr::Binary(
                        pg_cypher::ast::BinOp::Eq,
                        Box::new(Expr::Func {
                            name: "type".into(),
                            args: vec![var("rel")],
                            distinct: false,
                        }),
                        Box::new(lit(&label)),
                    ),
                    renames,
                }
            }
            (Some(EventKind::RelPropRemoved), Some(p)) => {
                renames.insert(spec.var_name(TransitionVar::New), "rel".to_string());
                renames.insert(spec.var_name(TransitionVar::Old), "oldProps".to_string());
                Plan {
                    prefix: format!(
                        "UNWIND $removedRelProperties['{p}'] AS aProp \
                         WITH aProp.relationship AS rel, {{{p}: aProp.old}} AS oldProps"
                    ),
                    item_var: "rel".to_string(),
                    label_check: Expr::Binary(
                        pg_cypher::ast::BinOp::Eq,
                        Box::new(Expr::Func {
                            name: "type".into(),
                            args: vec![var("rel")],
                            distinct: false,
                        }),
                        Box::new(lit(&label)),
                    ),
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
        Ok(p)
    };

    let mut plan = each_plan(spec)?;

    // FOR ALL: collect the affected items into a list after the per-item
    // label filter; the set-level transition variable maps onto the list.
    // (§5.1: "we cannot separate the two cases of granularity, because
    // UNWIND returns, in any case, the entire set".)
    if spec.granularity == Granularity::All {
        let unit = plan.item_var.clone();
        let list_var = format!("{unit}List");
        plan.prefix = format!(
            "{} WITH {unit} WHERE {} WITH collect({unit}) AS {list_var}",
            plan.prefix,
            unparse_expr(&plan.label_check),
        );
        plan.label_check = Expr::Binary(
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
        if spec.kind().is_some_and(EventKind::on_property) {
            return Err(TranslateError::Unsupported(
                "FOR ALL with property events: APOC metadata cannot deliver aligned OLD/NEW item sets"
                    .to_string(),
            ));
        }
        plan.item_var = list_var;
    }

    // ------------------------------------------------------------------
    // Condition: a bare predicate goes into do.when; a pipeline becomes a
    // filtering condition_query before it (Figure 2's `condition_query`).
    // ------------------------------------------------------------------
    let mut cond_expr = plan.label_check.clone();
    let mut condition_pipeline = String::new();
    if let Some(cond) = &spec.condition {
        let renamed = rename_vars(cond.query(), &plan.renames);
        match renamed.clauses.as_slice() {
            [Clause::Where(pred)] => {
                cond_expr = Expr::Binary(
                    pg_cypher::ast::BinOp::And,
                    Box::new(cond_expr),
                    Box::new(pred.clone()),
                );
            }
            clauses => {
                condition_pipeline = clauses
                    .iter()
                    .map(unparse_clause)
                    .collect::<Vec<_>>()
                    .join(" ");
            }
        }
    }

    // ------------------------------------------------------------------
    // Statement + operands.
    // ------------------------------------------------------------------
    let statement = rename_vars(spec.statement.query(), &plan.renames);
    let stmt_text = unparse_query(&statement);

    // Operands = variables the statement references that the prefix (or the
    // condition pipeline) binds.
    let mut bound: BTreeSet<String> = BTreeSet::new();
    bound.insert(plan.item_var.clone());
    for v in plan.renames.values() {
        bound.insert(v.clone());
    }
    if let Some(cond) = &spec.condition {
        collect_bound_vars(&rename_vars(cond.query(), &plan.renames), &mut bound);
    }
    let mut referenced: BTreeSet<String> = BTreeSet::new();
    collect_var_refs(&statement, &mut referenced);
    collect_expr_refs(&cond_expr, &mut referenced);
    let args: Vec<String> = bound.intersection(&referenced).cloned().collect();
    let args_text = if args.is_empty() {
        format!("{{{}: {}}}", plan.item_var, plan.item_var)
    } else {
        format!(
            "{{{}}}",
            args.iter()
                .map(|v| format!("{v}: {v}"))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };

    let escaped_stmt = stmt_text.replace('\\', "\\\\").replace('\'', "\\'");
    let statement = format!(
        "{prefix}{pipeline} CALL apoc.do.when({cond}, '{then}', '', {args}) YIELD value RETURN *",
        prefix = plan.prefix,
        pipeline = if condition_pipeline.is_empty() {
            String::new()
        } else {
            format!(" {condition_pipeline}")
        },
        cond = unparse_expr(&cond_expr),
        then = escaped_stmt,
        args = args_text,
    );

    Ok(ApocInstall {
        name: spec.name.clone(),
        statement,
        phase,
        warnings,
    })
}

/// Variables bound by a query's clauses (approximate: pattern variables,
/// UNWIND aliases, WITH/RETURN aliases).
fn collect_bound_vars(q: &Query, out: &mut BTreeSet<String>) {
    fn pattern_vars(p: &PathPattern, out: &mut BTreeSet<String>) {
        if let Some(v) = &p.start.var {
            out.insert(v.clone());
        }
        for (r, n) in &p.segments {
            if let Some(v) = &r.var {
                out.insert(v.clone());
            }
            if let Some(v) = &n.var {
                out.insert(v.clone());
            }
        }
    }
    for c in &q.clauses {
        match c {
            Clause::Match { patterns, .. } | Clause::Create { patterns } => {
                for p in patterns {
                    pattern_vars(p, out);
                }
            }
            Clause::Merge { pattern, .. } => pattern_vars(pattern, out),
            Clause::Unwind { alias, .. } => {
                out.insert(alias.clone());
            }
            Clause::With(p) | Clause::Return(p) => {
                for i in &p.items {
                    out.insert(i.name());
                }
            }
            _ => {}
        }
    }
}

/// All variable references in a query (expressions, pattern labels that may
/// be transition-variable references, property maps).
fn collect_var_refs(q: &Query, out: &mut BTreeSet<String>) {
    fn from_pattern(p: &PathPattern, out: &mut BTreeSet<String>) {
        for l in &p.start.labels {
            out.insert(l.clone());
        }
        if let Some(v) = &p.start.var {
            out.insert(v.clone());
        }
        for (_, e) in &p.start.props {
            collect_expr_refs(e, out);
        }
        for (r, n) in &p.segments {
            if let Some(v) = &r.var {
                out.insert(v.clone());
            }
            for (_, e) in &r.props {
                collect_expr_refs(e, out);
            }
            for l in &n.labels {
                out.insert(l.clone());
            }
            if let Some(v) = &n.var {
                out.insert(v.clone());
            }
            for (_, e) in &n.props {
                collect_expr_refs(e, out);
            }
        }
    }
    for c in &q.clauses {
        match c {
            Clause::Match {
                patterns,
                where_clause,
                ..
            } => {
                for p in patterns {
                    from_pattern(p, out);
                }
                if let Some(w) = where_clause {
                    collect_expr_refs(w, out);
                }
            }
            Clause::Create { patterns } => {
                for p in patterns {
                    from_pattern(p, out);
                }
            }
            Clause::Merge {
                pattern,
                on_create,
                on_match,
            } => {
                from_pattern(pattern, out);
                for items in [on_create, on_match] {
                    for i in items {
                        match i {
                            pg_cypher::ast::SetItem::Prop { target, value, .. } => {
                                collect_expr_refs(target, out);
                                collect_expr_refs(value, out);
                            }
                            pg_cypher::ast::SetItem::Labels { var, .. } => {
                                out.insert(var.clone());
                            }
                            pg_cypher::ast::SetItem::ReplaceProps { var, value }
                            | pg_cypher::ast::SetItem::MergeProps { var, value } => {
                                out.insert(var.clone());
                                collect_expr_refs(value, out);
                            }
                        }
                    }
                }
            }
            Clause::Where(e) | Clause::Abort(e) => collect_expr_refs(e, out),
            Clause::Unwind { expr, .. } => collect_expr_refs(expr, out),
            Clause::With(p) | Clause::Return(p) => {
                for i in &p.items {
                    collect_expr_refs(&i.expr, out);
                }
                for (e, _) in &p.order_by {
                    collect_expr_refs(e, out);
                }
                if let Some(w) = &p.where_clause {
                    collect_expr_refs(w, out);
                }
            }
            Clause::Set { items } => {
                for i in items {
                    match i {
                        pg_cypher::ast::SetItem::Prop { target, value, .. } => {
                            collect_expr_refs(target, out);
                            collect_expr_refs(value, out);
                        }
                        pg_cypher::ast::SetItem::Labels { var, .. } => {
                            out.insert(var.clone());
                        }
                        pg_cypher::ast::SetItem::ReplaceProps { var, value }
                        | pg_cypher::ast::SetItem::MergeProps { var, value } => {
                            out.insert(var.clone());
                            collect_expr_refs(value, out);
                        }
                    }
                }
            }
            Clause::Remove { items } => {
                for i in items {
                    match i {
                        pg_cypher::ast::RemoveItem::Prop { target, .. } => {
                            collect_expr_refs(target, out)
                        }
                        pg_cypher::ast::RemoveItem::Labels { var, .. } => {
                            out.insert(var.clone());
                        }
                    }
                }
            }
            Clause::Delete { exprs, .. } => {
                for e in exprs {
                    collect_expr_refs(e, out);
                }
            }
            Clause::Foreach { list, body, .. } => {
                collect_expr_refs(list, out);
                collect_var_refs(
                    &Query {
                        clauses: body.clone(),
                    },
                    out,
                );
            }
        }
    }
}

fn collect_expr_refs(e: &Expr, out: &mut BTreeSet<String>) {
    let mut v = Vec::new();
    e.collect_vars(&mut v);
    out.extend(v);
    // EXISTS pattern labels may be transition references.
    if let Expr::ExistsSubquery(patterns, _) = e {
        for p in patterns {
            for l in &p.start.labels {
                out.insert(l.clone());
            }
            for (_, n) in &p.segments {
                for l in &n.labels {
                    out.insert(l.clone());
                }
            }
        }
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
            out.statement.contains("WITH count(p) AS n WHERE (n > 50)"),
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
