//! Recursive-descent parser for the Cypher subset.
//!
//! Two entry points matter to the trigger layer:
//! * [`parse_query`] — strict parsing of a full query;
//! * [`parse_query_lenient`] — "paper mode", additionally tolerating the
//!   block punctuation used in the PG-Triggers paper's example statements
//!   (`THEN`, nested `BEGIN … END`) by treating `THEN`/`BEGIN` as clause
//!   separators and `END` as a terminator.
//!
//! Nesting is bounded by [`MAX_NESTING`]: every bracket, parenthesis,
//! operand chain link and `FOREACH` body opens one level, and a text that
//! opens more fails with a parse error instead of recursing — so no query
//! text can exhaust the stack of the parser or of the walks over its AST.

use crate::ast::*;
use crate::error::{CypherError, Result};
use crate::lexer::lex;
use crate::token::{Token, TokenKind};
use pg_graph::{Direction, Value, MAX_NESTING};

/// Parse a query string into an AST.
pub fn parse_query(src: &str) -> Result<Query> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens, false);
    let clauses = p.parse_clauses()?;
    p.expect_eof()?;
    Ok(Query { clauses })
}

/// Parse in lenient (paper-compatible) mode; see module docs.
pub fn parse_query_lenient(src: &str) -> Result<Query> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens, true);
    let clauses = p.parse_clauses()?;
    p.expect_eof_or_end()?;
    Ok(Query { clauses })
}

/// If `src` is an `EXPLAIN <query>` statement, return the `<query>` part
/// (with the keyword stripped); `None` otherwise. The keyword must be
/// followed by whitespace — `EXPLAINED` is not an `EXPLAIN`.
pub(crate) fn strip_explain(src: &str) -> Option<&str> {
    let t = src.trim_start();
    let head = t.get(..7)?;
    if !head.eq_ignore_ascii_case("EXPLAIN") {
        return None;
    }
    let rest = &t[7..];
    if !rest.starts_with(|c: char| c.is_whitespace()) {
        return None;
    }
    Some(rest.trim_start())
}

/// Parse a standalone expression (trigger `WHEN` predicates).
pub fn parse_expression(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens, false);
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    lenient: bool,
    /// Nesting levels open around the current token.
    depth: usize,
}

impl Parser {
    pub(crate) fn new(tokens: Vec<Token>, lenient: bool) -> Self {
        Parser {
            tokens,
            pos: 0,
            lenient,
            depth: 0,
        }
    }

    /// Open one more nesting level, failing past [`MAX_NESTING`].
    fn deeper(&mut self) -> Result<()> {
        if self.depth > MAX_NESTING {
            return Err(CypherError::parse(
                self.peek_pos(),
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.deeper()?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        let i = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn peek_pos(&self) -> usize {
        self.tokens[self.pos].pos
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<()> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(CypherError::parse(
                self.peek_pos(),
                format!("expected {kind}, found {}", self.peek()),
            ))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        self.eat(&TokenKind::Semicolon);
        if self.peek() == &TokenKind::Eof {
            Ok(())
        } else {
            Err(CypherError::parse(
                self.peek_pos(),
                format!("unexpected trailing input: {}", self.peek()),
            ))
        }
    }

    fn expect_eof_or_end(&mut self) -> Result<()> {
        while matches!(self.peek(), TokenKind::End | TokenKind::Semicolon) {
            self.bump();
        }
        if self.peek() == &TokenKind::Eof {
            Ok(())
        } else {
            Err(CypherError::parse(
                self.peek_pos(),
                format!("unexpected trailing input: {}", self.peek()),
            ))
        }
    }

    /// A name in identifier position (labels, properties, aliases): plain
    /// identifiers plus keywords that commonly double as names.
    fn expect_name(&mut self) -> Result<String> {
        if let Some(name) = self.peek().as_name() {
            let name = name.to_string();
            // Preserve original spelling for Ident, canonical for keywords.
            let out = if let TokenKind::Ident(s) = self.peek() {
                s.clone()
            } else {
                name
            };
            self.bump();
            Ok(out)
        } else if let TokenKind::Str(s) = self.peek() {
            // The paper quotes labels in the ON clause ('Mutation'); allow
            // string literals in name position for symmetry.
            let s = s.clone();
            self.bump();
            Ok(s)
        } else {
            Err(CypherError::parse(
                self.peek_pos(),
                format!("expected a name, found {}", self.peek()),
            ))
        }
    }

    // ------------------------------------------------------------------
    // Clauses
    // ------------------------------------------------------------------

    pub(crate) fn parse_clauses(&mut self) -> Result<Vec<Clause>> {
        let mut clauses = Vec::new();
        loop {
            if self.lenient {
                // Paper mode: THEN and BEGIN act as separators.
                loop {
                    let separator = self.peek() == &TokenKind::Then
                        || matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case("begin"));
                    if separator {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            match self.peek() {
                TokenKind::Eof | TokenKind::RBrace | TokenKind::RParen | TokenKind::Semicolon => {
                    break
                }
                TokenKind::End if self.lenient => break,
                _ => {}
            }
            clauses.push(self.parse_clause()?);
        }
        Ok(clauses)
    }

    fn parse_clause(&mut self) -> Result<Clause> {
        match self.peek().clone() {
            TokenKind::Match => {
                self.bump();
                self.parse_match(false)
            }
            TokenKind::Optional => {
                self.bump();
                self.expect(TokenKind::Match)?;
                self.parse_match(true)
            }
            TokenKind::Create => {
                self.bump();
                let patterns = self.parse_pattern_list(false)?;
                Ok(Clause::Create { patterns })
            }
            TokenKind::Merge => {
                self.bump();
                let pattern = self.parse_path_pattern()?;
                let mut on_create = Vec::new();
                let mut on_match = Vec::new();
                while self.peek() == &TokenKind::On {
                    self.bump();
                    match self.bump() {
                        TokenKind::Create => {
                            self.expect(TokenKind::Set)?;
                            on_create.extend(self.parse_set_items()?);
                        }
                        TokenKind::Match => {
                            self.expect(TokenKind::Set)?;
                            on_match.extend(self.parse_set_items()?);
                        }
                        other => {
                            return Err(CypherError::parse(
                                self.peek_pos(),
                                format!("expected CREATE or MATCH after ON, found {other}"),
                            ))
                        }
                    }
                }
                Ok(Clause::Merge {
                    pattern,
                    on_create,
                    on_match,
                })
            }
            TokenKind::Detach => {
                self.bump();
                self.expect(TokenKind::Delete)?;
                Ok(Clause::Delete {
                    detach: true,
                    exprs: self.parse_expr_list()?,
                })
            }
            TokenKind::Delete => {
                self.bump();
                Ok(Clause::Delete {
                    detach: false,
                    exprs: self.parse_expr_list()?,
                })
            }
            TokenKind::Set => {
                self.bump();
                Ok(Clause::Set {
                    items: self.parse_set_items()?,
                })
            }
            TokenKind::Remove => {
                self.bump();
                Ok(Clause::Remove {
                    items: self.parse_remove_items()?,
                })
            }
            TokenKind::With => {
                self.bump();
                Ok(Clause::With(self.parse_projection(true)?))
            }
            TokenKind::Return => {
                self.bump();
                Ok(Clause::Return(self.parse_projection(false)?))
            }
            TokenKind::Unwind => {
                self.bump();
                let expr = self.parse_expr()?;
                self.expect(TokenKind::As)?;
                let alias = self.expect_name()?;
                Ok(Clause::Unwind { expr, alias })
            }
            TokenKind::Foreach => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let var = self.expect_name()?;
                self.expect(TokenKind::In)?;
                let list = self.parse_expr()?;
                let body = self.nested(Self::parse_foreach_body)?;
                Ok(Clause::Foreach { var, list, body })
            }
            TokenKind::Where => {
                self.bump();
                Ok(Clause::Where(self.parse_expr()?))
            }
            TokenKind::Abort => {
                self.bump();
                Ok(Clause::Abort(self.parse_expr()?))
            }
            other => Err(CypherError::parse(
                self.peek_pos(),
                format!("expected a clause, found {other}"),
            )),
        }
    }

    /// After `FOREACH (v IN list`: `| clauses )`, or the paper's
    /// `) BEGIN clauses END`.
    fn parse_foreach_body(&mut self) -> Result<Vec<Clause>> {
        if self.eat(&TokenKind::Pipe) {
            let body = self.parse_clauses()?;
            self.expect(TokenKind::RParen)?;
            return Ok(body);
        }
        self.expect(TokenKind::RParen)?;
        if !matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case("begin")) {
            return Err(CypherError::parse(
                self.peek_pos(),
                "expected '|' or BEGIN in FOREACH",
            ));
        }
        self.bump();
        let mut body = Vec::new();
        while self.peek() != &TokenKind::End && self.peek() != &TokenKind::Eof {
            body.push(self.parse_clause()?);
        }
        self.expect(TokenKind::End)?;
        Ok(body)
    }

    fn parse_match(&mut self, optional: bool) -> Result<Clause> {
        let patterns = self.parse_pattern_list(true)?;
        let where_clause = if self.eat(&TokenKind::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Clause::Match {
            optional,
            patterns,
            where_clause,
        })
    }

    fn parse_expr_list(&mut self) -> Result<Vec<Expr>> {
        let mut exprs = vec![self.parse_expr()?];
        while self.eat(&TokenKind::Comma) {
            exprs.push(self.parse_expr()?);
        }
        Ok(exprs)
    }

    fn parse_set_items(&mut self) -> Result<Vec<SetItem>> {
        let mut items = vec![self.parse_set_item()?];
        while self.eat(&TokenKind::Comma) {
            items.push(self.parse_set_item()?);
        }
        Ok(items)
    }

    fn parse_set_item(&mut self) -> Result<SetItem> {
        let var = self.expect_name()?;
        match self.peek().clone() {
            TokenKind::Dot => {
                // n.key = expr (possibly a chained path: treat base as var)
                self.bump();
                let key = self.expect_name()?;
                self.expect(TokenKind::Eq)?;
                let value = self.parse_expr()?;
                Ok(SetItem::Prop {
                    target: Expr::Var(var),
                    key,
                    value,
                })
            }
            TokenKind::Colon => {
                let mut labels = Vec::new();
                while self.eat(&TokenKind::Colon) {
                    labels.push(self.expect_name()?);
                }
                Ok(SetItem::Labels { var, labels })
            }
            TokenKind::Eq => {
                self.bump();
                let value = self.parse_expr()?;
                Ok(SetItem::ReplaceProps { var, value })
            }
            TokenKind::PlusEq => {
                self.bump();
                let value = self.parse_expr()?;
                Ok(SetItem::MergeProps { var, value })
            }
            other => Err(CypherError::parse(
                self.peek_pos(),
                format!("invalid SET item after '{var}': {other}"),
            )),
        }
    }

    fn parse_remove_items(&mut self) -> Result<Vec<RemoveItem>> {
        let mut items = Vec::new();
        loop {
            let var = self.expect_name()?;
            if self.eat(&TokenKind::Dot) {
                let key = self.expect_name()?;
                items.push(RemoveItem::Prop {
                    target: Expr::Var(var),
                    key,
                });
            } else if self.peek() == &TokenKind::Colon {
                let mut labels = Vec::new();
                while self.eat(&TokenKind::Colon) {
                    labels.push(self.expect_name()?);
                }
                items.push(RemoveItem::Labels { var, labels });
            } else {
                return Err(CypherError::parse(
                    self.peek_pos(),
                    "expected '.prop' or ':Label' in REMOVE",
                ));
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_projection(&mut self, allow_where: bool) -> Result<Projection> {
        let distinct = self.eat(&TokenKind::Distinct);
        let mut star = false;
        let mut items = Vec::new();
        if self.eat(&TokenKind::Star) {
            star = true;
            if self.eat(&TokenKind::Comma) {
                items = self.parse_proj_items()?;
            }
        } else {
            items = self.parse_proj_items()?;
        }
        let mut order_by = Vec::new();
        let mut skip = None;
        let mut limit = None;
        let mut where_clause = None;
        loop {
            match self.peek() {
                TokenKind::Order => {
                    self.bump();
                    self.expect(TokenKind::By)?;
                    loop {
                        let key = self.parse_expr()?;
                        let asc = if self.eat(&TokenKind::Desc) {
                            false
                        } else {
                            self.eat(&TokenKind::Asc);
                            true
                        };
                        order_by.push((key, asc));
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                TokenKind::Skip => {
                    self.bump();
                    skip = Some(self.parse_expr()?);
                }
                TokenKind::Limit => {
                    self.bump();
                    limit = Some(self.parse_expr()?);
                }
                TokenKind::Where if allow_where && where_clause.is_none() => {
                    self.bump();
                    where_clause = Some(self.parse_expr()?);
                }
                _ => break,
            }
        }
        Ok(Projection {
            distinct,
            items,
            star,
            order_by,
            skip,
            limit,
            where_clause,
        })
    }

    fn parse_proj_items(&mut self) -> Result<Vec<ProjItem>> {
        let mut items = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let alias = if self.eat(&TokenKind::As) {
                Some(self.expect_name()?)
            } else {
                None
            };
            items.push(ProjItem { expr, alias });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(items)
    }

    // ------------------------------------------------------------------
    // Patterns
    // ------------------------------------------------------------------

    /// Parse comma-separated path patterns. In MATCH position the paper
    /// writes `MATCH (a), MATCH (b)`: the repeated keyword starts a **new
    /// MATCH clause** (its own relationship-uniqueness scope, exactly as in
    /// Cypher), so we consume the comma and leave the `MATCH` for the
    /// clause loop.
    fn parse_pattern_list(&mut self, in_match: bool) -> Result<Vec<PathPattern>> {
        let mut patterns = vec![self.parse_path_pattern()?];
        while self.peek() == &TokenKind::Comma {
            if in_match && self.peek_at(1) == &TokenKind::Match {
                self.bump(); // the comma; the clause loop sees MATCH next
                break;
            }
            self.bump();
            patterns.push(self.parse_path_pattern()?);
        }
        Ok(patterns)
    }

    pub(crate) fn parse_path_pattern(&mut self) -> Result<PathPattern> {
        let start = self.parse_node_pattern()?;
        let mut segments = Vec::new();
        while matches!(self.peek(), TokenKind::Minus | TokenKind::ArrowLeft) {
            let rel = self.parse_rel_pattern()?;
            let node = self.parse_node_pattern()?;
            segments.push((rel, node));
        }
        Ok(PathPattern { start, segments })
    }

    fn parse_node_pattern(&mut self) -> Result<NodePattern> {
        self.expect(TokenKind::LParen)?;
        let mut np = NodePattern::default();
        if let Some(_name) = self.peek().as_name() {
            np.var = Some(self.expect_name()?);
        }
        while self.eat(&TokenKind::Colon) {
            np.labels.push(self.expect_name()?);
        }
        if self.peek() == &TokenKind::LBrace {
            np.props = self.parse_prop_map()?;
        }
        self.expect(TokenKind::RParen)?;
        Ok(np)
    }

    fn parse_prop_map(&mut self) -> Result<Vec<(String, Expr)>> {
        self.expect(TokenKind::LBrace)?;
        let mut props = Vec::new();
        if self.peek() != &TokenKind::RBrace {
            loop {
                let key = self.expect_name()?;
                self.expect(TokenKind::Colon)?;
                let value = self.parse_expr()?;
                props.push((key, value));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RBrace)?;
        Ok(props)
    }

    fn parse_rel_pattern(&mut self) -> Result<RelPattern> {
        let left_arrow = self.eat(&TokenKind::ArrowLeft);
        if !left_arrow {
            self.expect(TokenKind::Minus)?;
        }
        let mut rp = RelPattern::default();
        if self.eat(&TokenKind::LBracket) {
            if let Some(_name) = self.peek().as_name() {
                rp.var = Some(self.expect_name()?);
            }
            if self.eat(&TokenKind::Colon) {
                rp.types.push(self.expect_name()?);
                while self.eat(&TokenKind::Pipe) {
                    self.eat(&TokenKind::Colon); // tolerate  :A|:B
                    rp.types.push(self.expect_name()?);
                }
            }
            if self.eat(&TokenKind::Star) {
                let min = if let TokenKind::Int(n) = self.peek() {
                    let n = *n as u32;
                    self.bump();
                    Some(n)
                } else {
                    None
                };
                if self.eat(&TokenKind::DotDot) {
                    let max = if let TokenKind::Int(n) = self.peek() {
                        let n = *n as u32;
                        self.bump();
                        Some(n)
                    } else {
                        None
                    };
                    rp.hops = Some((min.unwrap_or(1), max));
                } else {
                    // `*` = 1.. ; `*n` = exactly n
                    rp.hops = Some(match min {
                        Some(n) => (n, Some(n)),
                        None => (1, None),
                    });
                }
            }
            if self.peek() == &TokenKind::LBrace {
                rp.props = self.parse_prop_map()?;
            }
            self.expect(TokenKind::RBracket)?;
        }
        let right_arrow = self.eat(&TokenKind::ArrowRight);
        if !right_arrow {
            self.expect(TokenKind::Minus)?;
        }
        rp.direction = match (left_arrow, right_arrow) {
            (true, false) => Direction::In,
            (false, true) => Direction::Out,
            (false, false) => Direction::Both,
            (true, true) => {
                return Err(CypherError::parse(
                    self.peek_pos(),
                    "relationship pattern cannot point both ways",
                ))
            }
        };
        Ok(rp)
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    pub(crate) fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(Self::parse_or)
    }

    /// One left-associative precedence level, `next (op next)*`: each
    /// link nests the chain built so far one level deeper.
    fn parse_chain(
        &mut self,
        ops: &[(TokenKind, BinOp)],
        next: fn(&mut Self) -> Result<Expr>,
    ) -> Result<Expr> {
        let depth = self.depth;
        let mut lhs = next(self)?;
        while let Some(&(_, op)) = ops.iter().find(|(t, _)| t == self.peek()) {
            self.bump();
            self.deeper()?;
            let rhs = next(self)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        self.parse_chain(&[(TokenKind::Or, BinOp::Or)], Self::parse_xor)
    }

    fn parse_xor(&mut self) -> Result<Expr> {
        self.parse_chain(&[(TokenKind::Xor, BinOp::Xor)], Self::parse_and)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        self.parse_chain(&[(TokenKind::And, BinOp::And)], Self::parse_not)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Not) {
            let inner = self.nested(Self::parse_not)?;
            Ok(Expr::Unary(UnaryOp::Not, Box::new(inner)))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let lhs = self.parse_additive()?;
        let op = match self.peek() {
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::Neq => Some(BinOp::Neq),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            TokenKind::In => Some(BinOp::In),
            TokenKind::Contains => Some(BinOp::Contains),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_additive()?;
            return Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)));
        }
        if self.peek() == &TokenKind::Starts {
            self.bump();
            self.expect(TokenKind::With)?;
            let rhs = self.parse_additive()?;
            return Ok(Expr::Binary(
                BinOp::StartsWith,
                Box::new(lhs),
                Box::new(rhs),
            ));
        }
        if self.peek() == &TokenKind::Ends {
            self.bump();
            self.expect(TokenKind::With)?;
            let rhs = self.parse_additive()?;
            return Ok(Expr::Binary(BinOp::EndsWith, Box::new(lhs), Box::new(rhs)));
        }
        if self.peek() == &TokenKind::Is {
            self.bump();
            let negated = self.eat(&TokenKind::Not);
            self.expect(TokenKind::Null)?;
            return Ok(Expr::IsNull(Box::new(lhs), negated));
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let ops = [
            (TokenKind::Plus, BinOp::Add),
            (TokenKind::Minus, BinOp::Sub),
        ];
        self.parse_chain(&ops, Self::parse_multiplicative)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let ops = [
            (TokenKind::Star, BinOp::Mul),
            (TokenKind::Slash, BinOp::Div),
            (TokenKind::Percent, BinOp::Mod),
        ];
        self.parse_chain(&ops, Self::parse_power)
    }

    fn parse_power(&mut self) -> Result<Expr> {
        let lhs = self.parse_unary()?;
        if self.eat(&TokenKind::Caret) {
            // right-associative
            let rhs = self.nested(Self::parse_power)?;
            return Ok(Expr::Binary(BinOp::Pow, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.nested(Self::parse_unary)?;
            return Ok(Expr::Unary(UnaryOp::Neg, Box::new(inner)));
        }
        if self.eat(&TokenKind::Plus) {
            return self.nested(Self::parse_unary);
        }
        self.parse_postfix()
    }

    /// An atom and its `.key` / `[i]` / `[a..b]` / `:Label` suffixes; each
    /// suffix nests the expression one level deeper.
    fn parse_postfix(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut e = self.parse_atom()?;
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    self.bump();
                    self.deeper()?;
                    let key = self.expect_name()?;
                    e = Expr::Prop(Box::new(e), key);
                }
                TokenKind::LBracket => {
                    self.bump();
                    self.deeper()?;
                    // index or slice
                    if self.eat(&TokenKind::DotDot) {
                        let to = if self.peek() != &TokenKind::RBracket {
                            Some(Box::new(self.parse_expr()?))
                        } else {
                            None
                        };
                        self.expect(TokenKind::RBracket)?;
                        e = Expr::Slice(Box::new(e), None, to);
                    } else {
                        let first = self.parse_expr()?;
                        if self.eat(&TokenKind::DotDot) {
                            let to = if self.peek() != &TokenKind::RBracket {
                                Some(Box::new(self.parse_expr()?))
                            } else {
                                None
                            };
                            self.expect(TokenKind::RBracket)?;
                            e = Expr::Slice(Box::new(e), Some(Box::new(first)), to);
                        } else {
                            self.expect(TokenKind::RBracket)?;
                            e = Expr::Index(Box::new(e), Box::new(first));
                        }
                    }
                }
                TokenKind::Colon => {
                    // Label predicate `expr:Label(:Label)*`; only meaningful
                    // on variables/graph items. Avoid consuming ':' in map
                    // literal context (handled elsewhere).
                    let mut labels = Vec::new();
                    while self.peek() == &TokenKind::Colon {
                        // Lookahead: `:name`
                        if self.peek_at(1).as_name().is_none() {
                            break;
                        }
                        self.bump();
                        labels.push(self.expect_name()?);
                    }
                    if labels.is_empty() {
                        break;
                    }
                    self.deeper()?;
                    e = Expr::HasLabel(Box::new(e), labels);
                }
                _ => break,
            }
        }
        self.depth = depth;
        Ok(e)
    }

    fn parse_atom(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Int(i) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(i)))
            }
            TokenKind::Float(x) => {
                self.bump();
                Ok(Expr::Literal(Value::Float(x)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::Str(s)))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            TokenKind::Null => {
                self.bump();
                Ok(Expr::Literal(Value::Null))
            }
            TokenKind::Param(p) => {
                self.bump();
                Ok(Expr::Param(p))
            }
            TokenKind::Case => {
                self.bump();
                self.parse_case()
            }
            TokenKind::Exists => {
                self.bump();
                self.parse_exists()
            }
            TokenKind::LBracket => {
                self.bump();
                self.parse_list_or_comprehension()
            }
            TokenKind::LBrace => {
                let props = self.parse_prop_map()?;
                Ok(Expr::MapLit(props))
            }
            TokenKind::LParen => {
                // Could be a parenthesized expression or (in WHERE position)
                // the start of a pattern predicate — we only support pattern
                // predicates behind EXISTS, so this is an expression.
                self.bump();
                let e = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if self.peek_at(1) == &TokenKind::LParen {
                    self.bump();
                    self.parse_call(name)
                } else {
                    self.bump();
                    Ok(Expr::Var(name))
                }
            }
            // keyword-as-function (e.g. `exists` handled above; `size` etc.
            // are plain identifiers). Also keyword-as-variable for trigger
            // transition names is not needed — they are plain identifiers.
            other => {
                if let Some(name) = other.as_name() {
                    let name = name.to_string();
                    if self.peek_at(1) == &TokenKind::LParen {
                        self.bump();
                        return self.parse_call(name);
                    }
                }
                Err(CypherError::parse(
                    self.peek_pos(),
                    format!("unexpected token in expression: {other}"),
                ))
            }
        }
    }

    fn parse_call(&mut self, name: String) -> Result<Expr> {
        self.expect(TokenKind::LParen)?;
        if name.eq_ignore_ascii_case("count") && self.eat(&TokenKind::Star) {
            self.expect(TokenKind::RParen)?;
            return Ok(Expr::CountStar);
        }
        let distinct = self.eat(&TokenKind::Distinct);
        let mut args = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                args.push(self.parse_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(Expr::Func {
            name: name.to_lowercase(),
            args,
            distinct,
        })
    }

    fn parse_case(&mut self) -> Result<Expr> {
        let operand = if self.peek() != &TokenKind::When {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        let mut whens = Vec::new();
        while self.eat(&TokenKind::When) {
            let w = self.parse_expr()?;
            self.expect(TokenKind::Then)?;
            let t = self.parse_expr()?;
            whens.push((w, t));
        }
        if whens.is_empty() {
            return Err(CypherError::parse(
                self.peek_pos(),
                "CASE requires at least one WHEN",
            ));
        }
        let else_ = if self.eat(&TokenKind::Else) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect(TokenKind::End)?;
        Ok(Expr::Case {
            operand,
            whens,
            else_,
        })
    }

    /// `EXISTS { MATCH … [WHERE …] }`, `EXISTS (pattern)`, or
    /// `exists(expr)` (property-existence function form).
    fn parse_exists(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::LBrace) {
            self.eat(&TokenKind::Match);
            let mut patterns = self.parse_pattern_list(true)?;
            // `, MATCH` inside EXISTS continues the same subquery scope.
            while self.eat(&TokenKind::Match) {
                patterns.extend(self.parse_pattern_list(true)?);
            }
            let where_ = if self.eat(&TokenKind::Where) {
                Some(Box::new(self.parse_expr()?))
            } else {
                None
            };
            self.expect(TokenKind::RBrace)?;
            return Ok(Expr::ExistsSubquery(patterns, where_));
        }
        if self.peek() == &TokenKind::LParen {
            // Ambiguous: pattern `(n)-[…]-(…)` vs function arg `(n.prop)`.
            let (save, depth) = (self.pos, self.depth);
            if let Ok(pattern) = self.parse_path_pattern() {
                if !pattern.segments.is_empty() {
                    let mut patterns = vec![pattern];
                    while self.eat(&TokenKind::Comma) {
                        patterns.push(self.parse_path_pattern()?);
                    }
                    return Ok(Expr::ExistsSubquery(patterns, None));
                }
            }
            (self.pos, self.depth) = (save, depth);
            self.bump(); // consume '('
            let arg = self.parse_expr()?;
            self.expect(TokenKind::RParen)?;
            return Ok(Expr::Func {
                name: "exists".to_string(),
                args: vec![arg],
                distinct: false,
            });
        }
        Err(CypherError::parse(
            self.peek_pos(),
            "expected '{' or '(' after EXISTS",
        ))
    }

    fn parse_list_or_comprehension(&mut self) -> Result<Expr> {
        // After '['. Comprehension: ident IN … ; else literal list.
        if let TokenKind::Ident(var) = self.peek().clone() {
            if self.peek_at(1) == &TokenKind::In {
                self.bump();
                self.bump();
                let list = Box::new(self.parse_expr()?);
                let filter = if self.eat(&TokenKind::Where) {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                let map = if self.eat(&TokenKind::Pipe) {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                self.expect(TokenKind::RBracket)?;
                return Ok(Expr::ListComp {
                    var,
                    list,
                    filter,
                    map,
                });
            }
        }
        let mut items = Vec::new();
        if self.peek() != &TokenKind::RBracket {
            loop {
                items.push(self.parse_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RBracket)?;
        Ok(Expr::ListLit(items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_match_return() {
        let q = parse_query("MATCH (n:Person) WHERE n.age > 30 RETURN n.name AS name").unwrap();
        assert_eq!(q.clauses.len(), 2);
        match &q.clauses[0] {
            Clause::Match {
                optional,
                patterns,
                where_clause,
            } => {
                assert!(!optional);
                assert_eq!(patterns.len(), 1);
                assert_eq!(patterns[0].start.labels, vec!["Person"]);
                assert!(where_clause.is_some());
            }
            _ => panic!("expected MATCH"),
        }
        assert!(!q.is_updating());
    }

    #[test]
    fn parse_create_path() {
        let q = parse_query("CREATE (a:A {x: 1})-[:R {w: 2}]->(b:B)").unwrap();
        match &q.clauses[0] {
            Clause::Create { patterns } => {
                assert_eq!(patterns[0].segments.len(), 1);
                let (rel, node) = &patterns[0].segments[0];
                assert_eq!(rel.types, vec!["R"]);
                assert_eq!(rel.direction, Direction::Out);
                assert_eq!(node.labels, vec!["B"]);
            }
            _ => panic!("expected CREATE"),
        }
        assert!(q.is_updating());
    }

    #[test]
    fn parse_directions() {
        for (src, dir) in [
            ("MATCH (a)-[:R]->(b) RETURN a", Direction::Out),
            ("MATCH (a)<-[:R]-(b) RETURN a", Direction::In),
            ("MATCH (a)-[:R]-(b) RETURN a", Direction::Both),
        ] {
            let q = parse_query(src).unwrap();
            match &q.clauses[0] {
                Clause::Match { patterns, .. } => {
                    assert_eq!(patterns[0].segments[0].0.direction, dir, "{src}");
                }
                _ => panic!(),
            }
        }
        assert!(parse_query("MATCH (a)<-[:R]->(b) RETURN a").is_err());
    }

    #[test]
    fn parse_var_length() {
        let q = parse_query("MATCH (a)-[:R*2..4]->(b) RETURN a").unwrap();
        match &q.clauses[0] {
            Clause::Match { patterns, .. } => {
                assert_eq!(patterns[0].segments[0].0.hops, Some((2, Some(4))));
            }
            _ => panic!(),
        }
        let q = parse_query("MATCH (a)-[*]->(b) RETURN a").unwrap();
        match &q.clauses[0] {
            Clause::Match { patterns, .. } => {
                assert_eq!(patterns[0].segments[0].0.hops, Some((1, None)));
            }
            _ => panic!(),
        }
        let q = parse_query("MATCH (a)-[:R*3]->(b) RETURN a").unwrap();
        match &q.clauses[0] {
            Clause::Match { patterns, .. } => {
                assert_eq!(patterns[0].segments[0].0.hops, Some((3, Some(3))));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_with_aggregation_and_where() {
        let q = parse_query(
            "MATCH (p:IcuPatient) WITH COUNT(p) AS icuPat WHERE icuPat > 50 RETURN icuPat",
        )
        .unwrap();
        match &q.clauses[1] {
            Clause::With(proj) => {
                assert!(proj.where_clause.is_some());
                assert_eq!(proj.items[0].name(), "icuPat");
                assert!(proj.items[0].expr.has_aggregate());
            }
            _ => panic!("expected WITH"),
        }
    }

    #[test]
    fn parse_order_skip_limit() {
        let q = parse_query("MATCH (n) RETURN n.x ORDER BY n.x DESC, n.y SKIP 2 LIMIT 5").unwrap();
        match &q.clauses[1] {
            Clause::Return(proj) => {
                assert_eq!(proj.order_by.len(), 2);
                assert!(!proj.order_by[0].1);
                assert!(proj.order_by[1].1);
                assert!(proj.skip.is_some());
                assert!(proj.limit.is_some());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_exists_subquery_and_pattern() {
        let q = parse_query(
            "MATCH (s:Sequence) WHERE EXISTS { MATCH (:CriticalEffect)-[:Risk]-(:Mutation)-[:FoundIn]-(s) } RETURN s",
        )
        .unwrap();
        match &q.clauses[0] {
            Clause::Match {
                where_clause: Some(Expr::ExistsSubquery(ps, None)),
                ..
            } => {
                assert_eq!(ps[0].segments.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Pattern form from the paper's first trigger.
        let e = parse_expression("EXISTS (NEW)-[:Risk]-(:CriticalEffect)").unwrap();
        match e {
            Expr::ExistsSubquery(ps, None) => {
                assert_eq!(ps[0].start.var.as_deref(), Some("NEW"));
                assert_eq!(ps[0].segments.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Function form.
        let e = parse_expression("exists(n.prop)").unwrap();
        match e {
            Expr::Func { name, args, .. } => {
                assert_eq!(name, "exists");
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_case_forms() {
        let e = parse_expression("CASE WHEN x > 1 THEN 'big' ELSE 'small' END").unwrap();
        assert!(matches!(e, Expr::Case { operand: None, .. }));
        let e = parse_expression("CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' END").unwrap();
        assert!(matches!(
            e,
            Expr::Case {
                operand: Some(_),
                ..
            }
        ));
        assert!(parse_expression("CASE END").is_err());
    }

    #[test]
    fn parse_foreach_both_styles() {
        let q = parse_query("FOREACH (x IN [1,2] | SET n.p = x)").unwrap();
        assert!(matches!(&q.clauses[0], Clause::Foreach { body, .. } if body.len() == 1));
        let q = parse_query_lenient(
            "FOREACH (p IN pn) BEGIN MATCH (p)-[c:TreatedAt]-(h) DELETE c CREATE (p)-[:TreatedAt]->(hc) END",
        )
        .unwrap();
        assert!(matches!(&q.clauses[0], Clause::Foreach { body, .. } if body.len() == 3));
    }

    #[test]
    fn lenient_mode_skips_then_begin_end() {
        let q = parse_query_lenient("MATCH (a:A) WITH a THEN BEGIN SET a.x = 1 END").unwrap();
        assert_eq!(q.clauses.len(), 3);
        assert!(matches!(&q.clauses[2], Clause::Set { .. }));
    }

    #[test]
    fn parse_set_variants() {
        let q = parse_query("SET n.x = 1, n:Label, m += {a: 1}, k = {b: 2}").unwrap();
        match &q.clauses[0] {
            Clause::Set { items } => {
                assert_eq!(items.len(), 4);
                assert!(matches!(items[0], SetItem::Prop { .. }));
                assert!(matches!(items[1], SetItem::Labels { .. }));
                assert!(matches!(items[2], SetItem::MergeProps { .. }));
                assert!(matches!(items[3], SetItem::ReplaceProps { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_remove_variants() {
        let q = parse_query("REMOVE n.x, n:L1:L2").unwrap();
        match &q.clauses[0] {
            Clause::Remove { items } => {
                assert_eq!(items.len(), 2);
                assert!(matches!(items[0], RemoveItem::Prop { .. }));
                assert!(
                    matches!(&items[1], RemoveItem::Labels { labels, .. } if labels.len() == 2)
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_merge_with_actions() {
        let q = parse_query(
            "MERGE (n:A {k: 1}) ON CREATE SET n.created = true ON MATCH SET n.seen = true",
        )
        .unwrap();
        match &q.clauses[0] {
            Clause::Merge {
                on_create,
                on_match,
                ..
            } => {
                assert_eq!(on_create.len(), 1);
                assert_eq!(on_match.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_unwind_and_detach_delete() {
        let q = parse_query("UNWIND [1,2,3] AS x DETACH DELETE n").unwrap();
        assert!(matches!(&q.clauses[0], Clause::Unwind { alias, .. } if alias == "x"));
        assert!(matches!(&q.clauses[1], Clause::Delete { detach: true, .. }));
    }

    #[test]
    fn parse_label_predicate_expr() {
        let e = parse_expression("n:Person AND n.age > 18").unwrap();
        match e {
            Expr::Binary(BinOp::And, lhs, _) => {
                assert!(matches!(*lhs, Expr::HasLabel(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // multi-label predicate
        let e = parse_expression("p:HospitalizedPatient:IcuPatient").unwrap();
        assert!(matches!(e, Expr::HasLabel(_, ref ls) if ls.len() == 2));
    }

    #[test]
    fn parse_list_comprehension_and_ops() {
        let e = parse_expression("[x IN list WHERE x > 1 | x * 2]").unwrap();
        assert!(matches!(e, Expr::ListComp { .. }));
        let e = parse_expression("a[0]").unwrap();
        assert!(matches!(e, Expr::Index(_, _)));
        let e = parse_expression("a[1..3]").unwrap();
        assert!(matches!(e, Expr::Slice(_, Some(_), Some(_))));
        let e = parse_expression("'abc' STARTS WITH 'a'").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::StartsWith, _, _)));
        let e = parse_expression("x IS NOT NULL").unwrap();
        assert!(matches!(e, Expr::IsNull(_, true)));
    }

    #[test]
    fn parse_count_star_and_distinct() {
        let e = parse_expression("count(*)").unwrap();
        assert_eq!(e, Expr::CountStar);
        let e = parse_expression("count(DISTINCT x)").unwrap();
        assert!(matches!(e, Expr::Func { distinct: true, .. }));
    }

    #[test]
    fn parse_abort_clause() {
        let q = parse_query("ABORT 'icuBeds must be non-negative'").unwrap();
        assert!(matches!(&q.clauses[0], Clause::Abort(_)));
    }

    #[test]
    fn quoted_labels_in_patterns() {
        // Paper quotes labels in the ON clause; allow the same in patterns.
        let q = parse_query("MATCH (n:`Weird Label`) RETURN n").unwrap();
        match &q.clauses[0] {
            Clause::Match { patterns, .. } => {
                assert_eq!(patterns[0].start.labels, vec!["Weird Label"]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn paper_comma_match_style_is_two_clauses() {
        // `MATCH …, MATCH …` = two MATCH clauses, each with its own
        // relationship-uniqueness scope (the paper's §6.2 style).
        let q = parse_query("MATCH (p:A)-[:T]-(h:B), MATCH (pn:C)-[:T]-(h2:B) RETURN p").unwrap();
        assert_eq!(q.clauses.len(), 3);
        assert!(matches!(&q.clauses[0], Clause::Match { patterns, .. } if patterns.len() == 1));
        assert!(matches!(&q.clauses[1], Clause::Match { patterns, .. } if patterns.len() == 1));
        // plain commas still group into one clause
        let q = parse_query("MATCH (a), (b) RETURN a").unwrap();
        assert!(matches!(&q.clauses[0], Clause::Match { patterns, .. } if patterns.len() == 2));
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_query("MATCH (n RETURN n").unwrap_err();
        assert!(matches!(err, CypherError::Parse { .. }));
        assert!(parse_query("RETURN").is_err());
        assert!(parse_query("MATCH (n) BANANA").is_err());
    }

    #[test]
    fn optional_match_parses() {
        let q = parse_query("OPTIONAL MATCH (n:A) RETURN n").unwrap();
        assert!(matches!(
            &q.clauses[0],
            Clause::Match { optional: true, .. }
        ));
    }

    #[test]
    fn with_star_projection() {
        let q = parse_query("MATCH (n) WITH *, n.x AS x RETURN x").unwrap();
        match &q.clauses[1] {
            Clause::With(p) => {
                assert!(p.star);
                assert_eq!(p.items.len(), 1);
            }
            _ => panic!(),
        }
    }

    /// Parse `src` on a 2 MiB thread — what a spawned thread (a server
    /// connection) gets — and report whether it parsed.
    fn parses_on_small_stack(src: String) -> std::result::Result<(), CypherError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse_query(&src).map(drop))
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn nesting_is_bounded_on_a_connection_sized_stack() {
        let wrap = |open: &str, close: &str, depth: usize| {
            format!("RETURN {}1{} AS x", open.repeat(depth), close.repeat(depth))
        };
        let chain = |op: &str, depth: usize| format!("RETURN 1{} AS x", op.repeat(depth));
        let prefix = |op: &str, depth: usize| format!("RETURN {}true AS x", op.repeat(depth));
        let foreach = |depth: usize| {
            let open = "FOREACH (x IN [1] | ".repeat(depth);
            format!("{open}CREATE (){}", ")".repeat(depth))
        };
        let shapes: [&dyn Fn(usize) -> String; 7] = [
            &|d| wrap("[", "]", d),
            &|d| wrap("(", ")", d),
            &|d| wrap("{k: ", "}", d),
            &|d| chain(" + 1", d),
            &|d| chain(".k", d),
            &|d| prefix("NOT ", d),
            &|d| foreach(d),
        ];
        for shape in shapes {
            let at_bound = shape(MAX_NESTING);
            assert_eq!(
                parses_on_small_stack(at_bound.clone()),
                Ok(()),
                "{at_bound}"
            );
            for depth in [MAX_NESTING + 1, 10_000] {
                let err = parses_on_small_stack(shape(depth)).unwrap_err();
                assert!(
                    matches!(&err, CypherError::Parse { msg, .. } if msg.contains("nesting")),
                    "depth {depth}: {err}"
                );
            }
        }
    }
}
