//! One walk over the query AST. Every analysis that needs to see "all of
//! a query" — whether it updates, which variables an expression reads,
//! where its `MATCH` clauses are, which events it may generate, which
//! names a translation must rename — is a caller of this walk instead of a
//! recursion of its own.
//!
//! # Traversal order
//!
//! Pre-order: a node is reported before its children, and children are
//! visited in source order.
//!
//! * `MATCH`: its patterns, then `WHERE`. `CREATE`: its patterns.
//!   `MERGE`: its pattern, then the `ON CREATE` and `ON MATCH` items.
//! * `WITH` / `RETURN`: the item expressions, `ORDER BY` keys, `SKIP`,
//!   `LIMIT`, then `WHERE`.
//! * `SET`: per item, the target then the value (`n.k = v`), or the value
//!   (`n = m`, `n += m`). `REMOVE`: per `n.k` item, the target.
//! * `UNWIND`, `DELETE`, `WHERE`, `ABORT`: their expressions. `FOREACH`:
//!   the list, then the body clauses.
//! * A path pattern: the property values of its start node, then per
//!   segment those of the relationship and of the node.
//! * An expression: its operands left to right — for `CASE` the operand,
//!   each `WHEN`/`THEN` pair and `ELSE`; for `EXISTS` the patterns, then
//!   `WHERE`; for a list comprehension the list, the filter, the mapping.
//!
//! Only clauses, patterns and expressions are reported. Names — aliases,
//! labels, pattern and loop variables — are read off the node holding
//! them; `names_mut`, the mutable twin of the walk, rewrites them all
//! (behind [`crate::rename_vars`]).
//!
//! # Pruning
//!
//! [`Visitor::enter`] sees a node before any of its children; returning
//! `false` skips every descendant of that node (its siblings are still
//! visited). [`Visitor::leave`] then sees the node after its children,
//! whether they were skipped or not. A closure `FnMut(Node) -> bool` is a
//! visitor that only enters. The walk itself allocates nothing.

use super::*;

/// A node reported by the walk.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    Clause(&'a Clause),
    Pattern(&'a PathPattern),
    Expr(&'a Expr),
}

/// The callbacks of a walk (see the module docs for the contract).
pub trait Visitor {
    /// Called before `node`'s children; `false` skips them.
    fn enter(&mut self, node: Node<'_>) -> bool;
    /// Called after `node`'s children.
    fn leave(&mut self, _node: Node<'_>) {}
}

impl<F: FnMut(Node<'_>) -> bool> Visitor for F {
    fn enter(&mut self, node: Node<'_>) -> bool {
        self(node)
    }
}

/// [`Node`] for the mutable twin of the walk.
pub(crate) enum NodeMut<'a> {
    Clause(&'a mut Clause),
    Pattern(&'a mut PathPattern),
    Expr(&'a mut Expr),
}

/// [`Visitor`] for the mutable twin of the walk. `enter` may rewrite the
/// node in place; the walk then descends into what it became.
pub(crate) trait VisitorMut {
    /// Called before `node`'s children; `false` skips them.
    fn enter(&mut self, node: NodeMut<'_>) -> bool;
    /// Called after `node`'s children.
    fn leave(&mut self, _node: NodeMut<'_>) {}
}

impl<F: FnMut(NodeMut<'_>) -> bool> VisitorMut for F {
    fn enter(&mut self, node: NodeMut<'_>) -> bool {
        self(node)
    }
}

/// The walk, written once and instantiated twice: over shared references
/// ([`clauses`], [`pattern`], [`expr`]) and, with `mut`, over exclusive
/// ones (`clauses_mut`, `expr_mut`).
macro_rules! walk {
    ($Visitor:ident, $Node:ident $(, $m:ident)?) => {
        pub fn clauses(clauses: &$($m)? [Clause], v: &mut impl $Visitor) {
            for c in clauses {
                clause(c, v);
            }
        }

        fn clause(c: &$($m)? Clause, v: &mut impl $Visitor) {
            if v.enter($Node::Clause(&$($m)? *c)) {
                match &$($m)? *c {
                    Clause::Match {
                        patterns,
                        where_clause,
                        ..
                    } => {
                        for p in patterns {
                            pattern(p, v);
                        }
                        if let Some(w) = where_clause {
                            expr(w, v);
                        }
                    }
                    Clause::Create { patterns } => {
                        for p in patterns {
                            pattern(p, v);
                        }
                    }
                    Clause::Merge {
                        pattern: p,
                        on_create,
                        on_match,
                    } => {
                        pattern(p, v);
                        for items in [on_create, on_match] {
                            for item in items {
                                set_item(item, v);
                            }
                        }
                    }
                    Clause::Set { items } => {
                        for item in items {
                            set_item(item, v);
                        }
                    }
                    Clause::Remove { items } => {
                        for item in items {
                            if let RemoveItem::Prop { target, .. } = item {
                                expr(target, v);
                            }
                        }
                    }
                    Clause::Delete { exprs, .. } => {
                        for e in exprs {
                            expr(e, v);
                        }
                    }
                    Clause::Unwind { expr: e, .. } | Clause::Where(e) | Clause::Abort(e) => {
                        expr(e, v)
                    }
                    Clause::With(p) | Clause::Return(p) => {
                        for item in &$($m)? p.items {
                            expr(&$($m)? item.expr, v);
                        }
                        for (key, _) in &$($m)? p.order_by {
                            expr(key, v);
                        }
                        let tail = [&$($m)? p.skip, &$($m)? p.limit, &$($m)? p.where_clause];
                        for e in tail.into_iter().flatten() {
                            expr(e, v);
                        }
                    }
                    Clause::Foreach { list, body, .. } => {
                        expr(list, v);
                        clauses(body, v);
                    }
                }
            }
            v.leave($Node::Clause(c));
        }

        fn set_item(item: &$($m)? SetItem, v: &mut impl $Visitor) {
            match item {
                SetItem::Prop { target, value, .. } => {
                    expr(target, v);
                    expr(value, v);
                }
                SetItem::ReplaceProps { value, .. } | SetItem::MergeProps { value, .. } => {
                    expr(value, v)
                }
                SetItem::Labels { .. } => {}
            }
        }

        pub fn pattern(p: &$($m)? PathPattern, v: &mut impl $Visitor) {
            if v.enter($Node::Pattern(&$($m)? *p)) {
                for (_, e) in &$($m)? p.start.props {
                    expr(e, v);
                }
                for (r, n) in &$($m)? p.segments {
                    for (_, e) in &$($m)? r.props {
                        expr(e, v);
                    }
                    for (_, e) in &$($m)? n.props {
                        expr(e, v);
                    }
                }
            }
            v.leave($Node::Pattern(p));
        }

        pub fn expr(e: &$($m)? Expr, v: &mut impl $Visitor) {
            if v.enter($Node::Expr(&$($m)? *e)) {
                match &$($m)? *e {
                    Expr::Literal(_) | Expr::Param(_) | Expr::Var(_) | Expr::CountStar => {}
                    Expr::Prop(b, _) | Expr::HasLabel(b, _) | Expr::Unary(_, b) | Expr::IsNull(b, _) => {
                        expr(b, v)
                    }
                    Expr::Binary(_, a, b) | Expr::Index(a, b) => {
                        expr(a, v);
                        expr(b, v);
                    }
                    Expr::Func { args: items, .. } | Expr::ListLit(items) => {
                        for x in items {
                            expr(x, v);
                        }
                    }
                    Expr::MapLit(entries) => {
                        for (_, x) in entries {
                            expr(x, v);
                        }
                    }
                    Expr::Slice(base, from, to) => {
                        expr(base, v);
                        for x in [from, to].into_iter().flatten() {
                            expr(x, v);
                        }
                    }
                    Expr::Case {
                        operand,
                        whens,
                        else_,
                    } => {
                        if let Some(x) = operand {
                            expr(x, v);
                        }
                        for (w, t) in whens {
                            expr(w, v);
                            expr(t, v);
                        }
                        if let Some(x) = else_ {
                            expr(x, v);
                        }
                    }
                    Expr::ExistsSubquery(patterns, where_) => {
                        for p in patterns {
                            pattern(p, v);
                        }
                        if let Some(w) = where_ {
                            expr(w, v);
                        }
                    }
                    Expr::ListComp {
                        list, filter, map, ..
                    } => {
                        expr(list, v);
                        for x in [filter, map].into_iter().flatten() {
                            expr(x, v);
                        }
                    }
                }
            }
            v.leave($Node::Expr(e));
        }
    };
}

mod shared {
    use super::*;
    walk!(Visitor, Node);
}

mod exclusive {
    use super::*;
    walk!(VisitorMut, NodeMut, mut);
}

pub(crate) use exclusive::{clauses as clauses_mut, expr as expr_mut};
pub use shared::{clauses, expr, pattern};

/// The mutable twin of the walk: hand every name position of `clauses`
/// to `f`, in walk order, to rewrite in place. Name positions are the
/// variables (`Expr::Var`, pattern variables, list-comprehension,
/// `FOREACH` and `UNWIND` variables), projection aliases, the variables
/// `SET`/`REMOVE` items target, and node-pattern labels — which may name
/// a transition variable, as in `MATCH (pn:NEWNODES)`. Label predicates
/// (`n:L`), relationship types, property keys, functions and parameters
/// are not names in this sense.
pub(crate) fn names_mut(clauses: &mut [Clause], mut f: impl FnMut(&mut String)) {
    fn node_names(n: &mut NodePattern, f: &mut impl FnMut(&mut String)) {
        n.var.iter_mut().chain(&mut n.labels).for_each(f);
    }
    fn set_item_names(items: &mut [SetItem], f: &mut impl FnMut(&mut String)) {
        for item in items {
            match item {
                SetItem::Labels { var, .. }
                | SetItem::ReplaceProps { var, .. }
                | SetItem::MergeProps { var, .. } => f(var),
                SetItem::Prop { .. } => {}
            }
        }
    }
    clauses_mut(clauses, &mut |node: NodeMut| {
        match node {
            NodeMut::Clause(c) => match c {
                Clause::Unwind { alias, .. } => f(alias),
                Clause::With(p) | Clause::Return(p) => p
                    .items
                    .iter_mut()
                    .filter_map(|i| i.alias.as_mut())
                    .for_each(&mut f),
                Clause::Set { items } => set_item_names(items, &mut f),
                Clause::Merge {
                    on_create,
                    on_match,
                    ..
                } => {
                    set_item_names(on_create, &mut f);
                    set_item_names(on_match, &mut f);
                }
                Clause::Remove { items } => {
                    for item in items {
                        if let RemoveItem::Labels { var, .. } = item {
                            f(var);
                        }
                    }
                }
                Clause::Foreach { var, .. } => f(var),
                _ => {}
            },
            NodeMut::Pattern(p) => {
                node_names(&mut p.start, &mut f);
                for (r, n) in &mut p.segments {
                    r.var.iter_mut().for_each(&mut f);
                    node_names(n, &mut f);
                }
            }
            NodeMut::Expr(Expr::Var(v) | Expr::ListComp { var: v, .. }) => f(v),
            NodeMut::Expr(_) => {}
        }
        true
    });
}
