//! The syntax-directed lowering behind the paper's §5 translations.
//! Figure 2 (APOC, `pg_apoc::translate`) and Figure 3 (Memgraph,
//! `pg_memgraph::translate`) are one scheme over a [`TriggerSpec`] written
//! in two vocabularies; [`lower`] is the scheme:
//!
//! 1. the event kind picks the target's metadata source — its row of the
//!    [`Vocabulary`] — which binds the **item variable**, and for property
//!    events also `oldProps`, the one-entry map `{<property>: old}`
//!    that `OLD.<property>` reads;
//! 2. the per-item check tests the item's label or type;
//! 3. `FOR EACH` renames `NEW`/`OLD` onto the item (and `OLD` onto
//!    `oldProps` for property events); `FOR ALL` collects the checked
//!    items into `<item>List` and renames the set-level transition
//!    variable onto it;
//! 4. a condition that is a bare predicate is AND-ed into the check; a
//!    pipeline is inlined after the prefix under the **carry rule**: every
//!    non-`*` `WITH` in it passes on the names the prefix binds, so the
//!    item survives projections — grouped per item under `FOR EACH`, as
//!    one group under `FOR ALL`, which is the native semantics;
//! 5. the statement is renamed like the condition.
//!
//! A translator keeps its vocabulary table, its action-time mapping and
//! its final assembly. `docs/translation.md` shows the two tables side by
//! side.

use crate::spec::{EventKind, EventType, Granularity, ItemKind, TransitionVar, TriggerSpec};
use pg_cypher::ast::{BinOp, Clause, Expr, ProjItem, Query};
use pg_cypher::{rename_vars, unparse_expr, unparse_query};
use pg_graph::Value;
use std::collections::BTreeMap;

/// The variable a property event's prefix binds to `{<property>: old}`.
const OLD_PROPS: &str = "oldProps";

/// Trigger shapes a target system cannot express.
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

/// How a target system spells the transition metadata (paper Table 2 for
/// APOC, Table 4 for Memgraph).
pub struct Vocabulary {
    /// What error messages call the metadata.
    pub metadata: &'static str,
    /// Per event kind: the item variable, and the clauses binding it (and
    /// `oldProps`, for property events). `{key}` in the clauses stands
    /// for the monitored label or property.
    pub sources: [(EventKind, &'static str, &'static str); EventKind::COUNT],
    /// The label test on a live node, applied to the item variable.
    pub node_label_check: fn(Expr, &str) -> Expr,
}

/// A trigger in the shape Figures 2 and 3 share.
#[derive(Debug)]
pub struct Lowered {
    /// The event prefix, followed by the inlined condition pipeline.
    pub head: String,
    /// The names the event prefix binds; the first is the item variable.
    pub binds: Vec<String>,
    /// The per-item check (`FOR ALL`: the collected list is not empty),
    /// AND-ed with a bare condition predicate.
    pub check: Expr,
    /// The condition pipeline as inlined into `head`, when the condition
    /// is one.
    pub pipeline: Option<Query>,
    /// The trigger statement, renamed.
    pub statement: Query,
    /// Semantic caveats of the lowering itself.
    pub warnings: Vec<String>,
}

impl Lowered {
    /// The item variable (`FOR ALL`: the list of items).
    pub fn item(&self) -> &str {
        &self.binds[0]
    }
}

/// Lower `spec` into `vocab` (see the module docs).
pub fn lower(spec: &TriggerSpec, vocab: &Vocabulary) -> Result<Lowered, TranslateError> {
    use EventKind::*;
    let kind = spec.kind().ok_or_else(|| {
        TranslateError::Unsupported(format!(
            "event {:?} on {:?} with property {:?}",
            spec.event, spec.item, spec.property
        ))
    })?;
    let &(_, item, source) = vocab
        .sources
        .iter()
        .find(|(k, ..)| *k == kind)
        .expect("a vocabulary has a row per event kind");
    let mut head = source.replace("{key}", spec.property.as_deref().unwrap_or(&spec.label));

    let var = |name: &str| Expr::Var(name.to_string());
    let label = || Box::new(Expr::Literal(Value::Str(spec.label.clone())));
    let call = |name: &str, arg: Expr| {
        Box::new(Expr::Func {
            name: name.into(),
            args: vec![arg],
            distinct: false,
        })
    };
    let field = |name: &str| Box::new(Expr::Prop(Box::new(var(item)), name.into()));
    let mut check = match kind {
        NodeCreated | NodePropSet | NodePropRemoved => {
            (vocab.node_label_check)(var(item), &spec.label)
        }
        RelCreated | RelPropSet | RelPropRemoved => {
            Expr::Binary(BinOp::Eq, call("type", var(item)), label())
        }
        NodeDeleted => Expr::Binary(BinOp::In, label(), field("__labels")),
        RelDeleted => Expr::Binary(BinOp::Eq, field("__type"), label()),
        LabelSet | LabelRemoved => Expr::Literal(Value::Bool(true)),
    };

    let mut renames = BTreeMap::new();
    let binds = match spec.granularity {
        Granularity::Each => {
            let onto_item: &[TransitionVar] = match kind {
                NodeDeleted | RelDeleted => &[TransitionVar::Old],
                LabelRemoved => &[TransitionVar::Old, TransitionVar::New],
                // a property event's `OLD` is its old properties, below
                _ => &[TransitionVar::New],
            };
            for &v in onto_item {
                renames.insert(spec.var_name(v), item.to_string());
            }
            let mut binds = vec![item.to_string()];
            if kind.on_property() {
                renames.insert(spec.var_name(TransitionVar::Old), OLD_PROPS.into());
                binds.push(OLD_PROPS.into());
            }
            binds
        }
        Granularity::All => {
            if kind.on_property() {
                return Err(TranslateError::Unsupported(format!(
                    "FOR ALL with property events: {} cannot deliver aligned OLD/NEW item sets",
                    vocab.metadata
                )));
            }
            let list = format!("{item}List");
            head = format!(
                "{head} WITH {item} WHERE {} WITH collect({item}) AS {list}",
                unparse_expr(&check)
            );
            let zero = Box::new(Expr::Literal(Value::Int(0)));
            check = Expr::Binary(BinOp::Gt, call("size", var(&list)), zero);
            let new_side = matches!(spec.event, EventType::Create | EventType::Set);
            let set_var = match (spec.item, new_side) {
                (ItemKind::Node, true) => TransitionVar::NewNodes,
                (ItemKind::Node, false) => TransitionVar::OldNodes,
                (ItemKind::Relationship, true) => TransitionVar::NewRels,
                (ItemKind::Relationship, false) => TransitionVar::OldRels,
            };
            renames.insert(spec.var_name(set_var), list.clone());
            vec![list]
        }
    };

    let mut pipeline = None;
    let mut warnings = Vec::new();
    if let Some(cond) = &spec.condition {
        let mut q = rename_vars(cond.query(), &renames);
        if let [Clause::Where(pred)] = q.clauses.as_slice() {
            check = Expr::Binary(BinOp::And, Box::new(check), Box::new(pred.clone()));
        } else {
            let per_item = spec.granularity == Granularity::Each;
            carry(&mut q, &binds, per_item, &mut warnings);
            let text = unparse_query(&q);
            if !text.is_empty() {
                head = format!("{head} {text}");
            }
            pipeline = Some(q);
        }
    }

    Ok(Lowered {
        head,
        binds,
        check,
        pipeline,
        statement: rename_vars(spec.statement.query(), &renames),
        warnings,
    })
}

/// The carry rule: every non-`*` `WITH` of `pipeline` passes on `binds`.
/// Under `FOR EACH` a `SKIP`/`LIMIT` on such a `WITH` then cuts across
/// all affected items, not per item as natively — that is warned about.
fn carry(pipeline: &mut Query, binds: &[String], per_item: bool, warnings: &mut Vec<String>) {
    for clause in &mut pipeline.clauses {
        let Clause::With(p) = clause else { continue };
        if p.star {
            continue;
        }
        for name in binds {
            if !p.items.iter().any(|i| i.name() == *name) {
                p.items.push(ProjItem {
                    expr: Expr::Var(name.clone()),
                    alias: None,
                });
            }
        }
        if per_item && (p.skip.is_some() || p.limit.is_some()) && warnings.is_empty() {
            warnings.push(
                "SKIP/LIMIT in a condition pipeline: after translation it applies across all \
                 affected items, not per item"
                    .to_string(),
            );
        }
    }
}
