//! Abstract syntax tree for the Cypher subset.

use pg_graph::{Direction, Value};
use visit::{Node, Visitor};

pub mod visit;

/// A query: a sequence of clauses executed as a pipeline over binding rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub clauses: Vec<Clause>,
}

impl Query {
    /// `true` when the query contains any updating clause (directly or inside
    /// `FOREACH`). Used by the trigger engine to reject mutating conditions
    /// and to statically validate `BEFORE` trigger bodies.
    pub fn is_updating(&self) -> bool {
        let mut updating = false;
        visit::clauses(&self.clauses, &mut |node: Node| match node {
            Node::Clause(c) => {
                updating |= matches!(
                    c,
                    Clause::Create { .. }
                        | Clause::Merge { .. }
                        | Clause::Delete { .. }
                        | Clause::Set { .. }
                        | Clause::Remove { .. }
                );
                !updating
            }
            _ => false,
        });
        updating
    }
}

/// A top-level clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    Match {
        optional: bool,
        patterns: Vec<PathPattern>,
        where_clause: Option<Expr>,
    },
    Unwind {
        expr: Expr,
        alias: String,
    },
    With(Projection),
    Return(Projection),
    Create {
        patterns: Vec<PathPattern>,
    },
    Merge {
        pattern: PathPattern,
        on_create: Vec<SetItem>,
        on_match: Vec<SetItem>,
    },
    Delete {
        detach: bool,
        exprs: Vec<Expr>,
    },
    Set {
        items: Vec<SetItem>,
    },
    Remove {
        items: Vec<RemoveItem>,
    },
    Foreach {
        var: String,
        list: Expr,
        body: Vec<Clause>,
    },
    /// `WHERE` appearing directly after `WITH` is folded into the
    /// projection; a standalone filtering clause is used inside trigger
    /// conditions (`WHEN … WHERE pred`).
    Where(Expr),
    /// Extension: `ABORT <expr>` raises [`crate::CypherError::Aborted`],
    /// rolling back the enclosing statement/transaction. Gives trigger
    /// bodies a way to veto the activating statement (SQL3's unhandled
    /// exception behaviour).
    Abort(Expr),
}

/// Projection (`WITH`/`RETURN`) with its sub-clauses.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    pub distinct: bool,
    pub items: Vec<ProjItem>,
    /// `*` projection keeps all current bindings (plus extra items).
    pub star: bool,
    pub order_by: Vec<(Expr, bool)>, // (key, ascending)
    pub skip: Option<Expr>,
    pub limit: Option<Expr>,
    /// `WHERE` after `WITH` (filters the projected rows).
    pub where_clause: Option<Expr>,
}

/// One projected item, `expr [AS alias]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

impl ProjItem {
    /// The output column name: the alias when given, else the source text
    /// reconstruction of simple expressions (variable or property access).
    pub fn name(&self) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        self.expr.display_name()
    }
}

/// `SET` targets.
#[derive(Debug, Clone, PartialEq)]
pub enum SetItem {
    /// `SET n.key = expr`
    Prop {
        target: Expr,
        key: String,
        value: Expr,
    },
    /// `SET n:Label1:Label2`
    Labels { var: String, labels: Vec<String> },
    /// `SET n = expr` (replace all properties with map)
    ReplaceProps { var: String, value: Expr },
    /// `SET n += expr` (merge map into properties)
    MergeProps { var: String, value: Expr },
}

/// `REMOVE` targets.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoveItem {
    /// `REMOVE n.key`
    Prop { target: Expr, key: String },
    /// `REMOVE n:Label1:Label2`
    Labels { var: String, labels: Vec<String> },
}

/// A linear path pattern: a start node and zero or more (rel, node) hops.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPattern {
    pub start: NodePattern,
    pub segments: Vec<(RelPattern, NodePattern)>,
}

impl PathPattern {
    /// The node patterns, start node first.
    pub fn nodes(&self) -> impl Iterator<Item = &NodePattern> {
        std::iter::once(&self.start).chain(self.segments.iter().map(|(_, n)| n))
    }

    /// The variables the pattern names, in order: the start node's, then
    /// per segment the relationship's and the node's.
    pub fn vars(&self) -> impl Iterator<Item = &String> {
        let hops = self.segments.iter().flat_map(|(r, n)| [&r.var, &n.var]);
        std::iter::once(&self.start.var).chain(hops).flatten()
    }
}

/// `(var:Label1:Label2 {prop: expr, …})`
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodePattern {
    pub var: Option<String>,
    pub labels: Vec<String>,
    pub props: Vec<(String, Expr)>,
}

/// `-[var:TYPE1|TYPE2 *min..max {prop: expr}]->`
#[derive(Debug, Clone, PartialEq)]
pub struct RelPattern {
    pub var: Option<String>,
    pub types: Vec<String>,
    pub props: Vec<(String, Expr)>,
    pub direction: Direction,
    /// Variable-length bounds (`*`, `*n`, `*n..m`, `*..m`); `None` = single hop.
    pub hops: Option<(u32, Option<u32>)>,
}

impl Default for RelPattern {
    fn default() -> Self {
        RelPattern {
            var: None,
            types: Vec::new(),
            props: Vec::new(),
            direction: Direction::Both,
            hops: None,
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    Param(String),
    Var(String),
    /// `base.key`
    Prop(Box<Expr>, String),
    /// `expr:Label` (label predicate)
    HasLabel(Box<Expr>, Vec<String>),
    Unary(UnaryOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `fn(args…)`; `distinct` applies to aggregate calls.
    Func {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
    },
    /// `count(*)`
    CountStar,
    /// `[e1, e2, …]`
    ListLit(Vec<Expr>),
    /// `{k: v, …}`
    MapLit(Vec<(String, Expr)>),
    /// `base[index]`
    Index(Box<Expr>, Box<Expr>),
    /// `base[from..to]`
    Slice(Box<Expr>, Option<Box<Expr>>, Option<Box<Expr>>),
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`
    Case {
        operand: Option<Box<Expr>>,
        whens: Vec<(Expr, Expr)>,
        else_: Option<Box<Expr>>,
    },
    /// `EXISTS { MATCH … [WHERE …] }` or `EXISTS (pattern)`
    ExistsSubquery(Vec<PathPattern>, Option<Box<Expr>>),
    /// `expr IS NULL` / `IS NOT NULL`
    IsNull(Box<Expr>, bool),
    /// `[x IN list WHERE pred | map]` list comprehension
    ListComp {
        var: String,
        list: Box<Expr>,
        filter: Option<Box<Expr>>,
        map: Option<Box<Expr>>,
    },
}

impl Expr {
    /// A readable reconstruction used for implicit column names.
    pub fn display_name(&self) -> String {
        match self {
            Expr::Var(v) => v.clone(),
            Expr::Prop(base, key) => format!("{}.{}", base.display_name(), key),
            Expr::Func { name, .. } => format!("{name}(…)"),
            Expr::CountStar => "count(*)".to_string(),
            Expr::Literal(v) => v.to_string(),
            Expr::Param(p) => format!("${p}"),
            _ => "expr".to_string(),
        }
    }

    /// Collect variable references (free variables) into `out`: every
    /// `Var`, and the variables of `EXISTS` patterns, each pattern's after
    /// its property values. A list comprehension's own variable is not
    /// collected, its uses are.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        struct FreeVars<'o>(&'o mut Vec<String>);
        impl Visitor for FreeVars<'_> {
            fn enter(&mut self, node: Node<'_>) -> bool {
                if let Node::Expr(Expr::Var(v)) = node {
                    self.0.push(v.clone());
                }
                true
            }
            fn leave(&mut self, node: Node<'_>) {
                if let Node::Pattern(p) = node {
                    self.0.extend(p.vars().cloned());
                }
            }
        }
        visit::expr(self, &mut FreeVars(out));
    }

    /// Whether the expression contains an aggregate function call. Drives
    /// grouping in `WITH`/`RETURN` projections. Aggregates inside `EXISTS`
    /// or a list comprehension do not count.
    pub fn has_aggregate(&self) -> bool {
        let mut found = false;
        visit::expr(self, &mut |node: Node| {
            let Node::Expr(e) = node else { return false };
            found |= match e {
                Expr::CountStar => true,
                Expr::Func { name, .. } => crate::functions::is_aggregate(name),
                _ => false,
            };
            !found && !matches!(e, Expr::ExistsSubquery(..) | Expr::ListComp { .. })
        });
        found
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Xor,
    In,
    StartsWith,
    EndsWith,
    Contains,
}
