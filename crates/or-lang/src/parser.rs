//! A recursive-descent parser for OrQL.
//!
//! Grammar (informally):
//!
//! ```text
//! expr     ::= 'let' IDENT '=' expr 'in' expr
//!            | 'if' expr 'then' expr 'else' expr
//!            | orexpr
//! orexpr   ::= andexpr ('||' andexpr)*
//! andexpr  ::= cmpexpr ('&&' cmpexpr)*
//! cmpexpr  ::= addexpr (('=='|'!='|'<='|'<'|'>='|'>') addexpr)?
//! addexpr  ::= mulexpr (('+'|'-') mulexpr)*
//! mulexpr  ::= unary ('*' unary)*
//! unary    ::= '!' unary | atom
//! atom     ::= INT | STRING | 'true' | 'false' | 'unit' | IDENT
//!            | IDENT '(' args ')'                      (builtin call)
//!            | '(' expr ')' | '(' expr ',' expr ')'
//!            | '{' [expr (',' expr)*] '}'
//!            | '{' expr '|' qualifiers '}'
//!            | '<|' [expr (',' expr)*] '|>'
//!            | '<|' expr '|' qualifiers '|>'
//! qualifiers ::= qualifier (',' qualifier)*
//! qualifier  ::= IDENT '<-' expr | expr
//! ```

use std::fmt;

use crate::ast::{BinOp, Builtin, Expr, Qualifier};
use crate::lexer::{tokenize, LexError, Token};

/// A parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Index of the offending token.
    pub position: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at token {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            position: e.position,
            message: e.message,
        }
    }
}

/// How deeply an expression may nest: sub-expressions in brackets,
/// `let`/`if` parts, call arguments and qualifiers, `!` operands, and each
/// operand of a binary-operator chain all count one level.  Every later
/// stage (type checker, compiler, planner, engine, interpreter) recurses on
/// the syntax tree or on the morphisms compiled from it, so bounding the
/// depth here keeps the whole pipeline within a default 2 MiB thread
/// stack; without it a few kilobytes of `(`s overflow the stack and abort
/// the process.  Unoptimized builds spend an order of magnitude more stack
/// per level (a release build serves 500 nested comprehensions on 2 MiB, a
/// debug build about 25), so they get the lower limit.
pub const MAX_DEPTH: usize = if cfg!(debug_assertions) { 16 } else { 256 };

/// Parse a complete expression from source text.
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(src)?;
    let mut parser = Parser::new(tokens);
    let expr = parser.expr()?;
    parser.expect(Token::Eof)?;
    Ok(expr)
}

/// A top-level REPL statement: a binding or a bare expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `let name = expr` (without `in`): bind in the session environment.
    Bind(String, Expr),
    /// A bare expression to evaluate.
    Expr(Expr),
}

/// Parse a REPL statement.
pub fn parse_statement(src: &str) -> Result<Statement, ParseError> {
    let tokens = tokenize(src)?;
    let mut parser = Parser::new(tokens);
    // try `let x = expr <eof>` first
    if parser.peek() == &Token::Let {
        let save = parser.pos;
        parser.advance();
        if let Token::Ident(name) = parser.peek().clone() {
            parser.advance();
            if parser.peek() == &Token::Assign {
                parser.advance();
                let value = parser.expr()?;
                if parser.peek() == &Token::Eof {
                    return Ok(Statement::Bind(name, value));
                }
            }
        }
        parser.pos = save;
    }
    let expr = parser.expr()?;
    parser.expect(Token::Eof)?;
    Ok(Statement::Expr(expr))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Syntax-tree levels open above the current position.
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Open one more syntax-tree level, failing past [`MAX_DEPTH`].  The
    /// caller closes it by restoring `depth` once the level is parsed.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return self.error(format!("expression nested deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Parse `level` one syntax-tree level deeper.
    fn nested(
        &mut self,
        level: fn(&mut Parser) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        self.descend()?;
        let expr = level(self);
        self.depth -= 1;
        expr
    }

    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    fn advance(&mut self) -> Token {
        let t = self.peek().clone();
        self.pos += 1;
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            position: self.pos,
            message: message.into(),
        })
    }

    fn expect(&mut self, expected: Token) -> Result<(), ParseError> {
        if *self.peek() == expected {
            self.advance();
            Ok(())
        } else {
            self.error(format!("expected {expected}, found {}", self.peek()))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Parser::let_if_expr)
    }

    fn let_if_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Token::Let => {
                self.advance();
                let name = match self.advance() {
                    Token::Ident(n) => n,
                    other => return self.error(format!("expected identifier, found {other}")),
                };
                self.expect(Token::Assign)?;
                let value = self.expr()?;
                self.expect(Token::In)?;
                let body = self.expr()?;
                Ok(Expr::Let {
                    name,
                    value: Box::new(value),
                    body: Box::new(body),
                })
            }
            Token::If => {
                self.advance();
                let cond = self.expr()?;
                self.expect(Token::Then)?;
                let then_branch = self.expr()?;
                self.expect(Token::Else)?;
                let else_branch = self.expr()?;
                Ok(Expr::If {
                    cond: Box::new(cond),
                    then_branch: Box::new(then_branch),
                    else_branch: Box::new(else_branch),
                })
            }
            _ => self.or_expr(),
        }
    }

    // A left-associative chain nests one level deeper per operator, so
    // each loop below descends once per iteration and closes its levels
    // when the chain ends.

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut lhs = self.and_expr()?;
        while self.eat(&Token::OrOr) {
            self.descend()?;
            let rhs = self.and_expr()?;
            lhs = Expr::BinOp(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut lhs = self.cmp_expr()?;
        while self.eat(&Token::AndAnd) {
            self.descend()?;
            let rhs = self.cmp_expr()?;
            lhs = Expr::BinOp(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Token::Eq => Some(BinOp::Eq),
            Token::Neq => Some(BinOp::Neq),
            Token::Leq => Some(BinOp::Leq),
            Token::Lt => Some(BinOp::Lt),
            Token::Geq => Some(BinOp::Geq),
            Token::Gt => Some(BinOp::Gt),
            _ => None,
        };
        match op {
            Some(op) => {
                self.advance();
                let rhs = self.add_expr()?;
                Ok(Expr::BinOp(op, Box::new(lhs), Box::new(rhs)))
            }
            None => Ok(lhs),
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut lhs = self.mul_expr()?;
        loop {
            let op = if self.eat(&Token::Plus) {
                BinOp::Add
            } else if self.eat(&Token::Minus) {
                BinOp::Sub
            } else {
                self.depth = depth;
                return Ok(lhs);
            };
            self.descend()?;
            let rhs = self.mul_expr()?;
            lhs = Expr::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut lhs = self.unary()?;
        while self.eat(&Token::Star) {
            self.descend()?;
            let rhs = self.unary()?;
            lhs = Expr::BinOp(BinOp::Mul, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::Bang) {
            Ok(Expr::Not(Box::new(self.nested(Parser::unary)?)))
        } else {
            self.atom()
        }
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.advance() {
            Token::Int(i) => Ok(Expr::Int(i)),
            Token::Str(s) => Ok(Expr::Str(s)),
            Token::True => Ok(Expr::Bool(true)),
            Token::False => Ok(Expr::Bool(false)),
            Token::Unit => Ok(Expr::Unit),
            Token::Ident(name) => {
                if self.peek() == &Token::LParen {
                    let builtin = match Builtin::by_name(&name) {
                        Some(b) => b,
                        None => {
                            return self.error(format!(
                                "unknown function {name} (OrQL has no user-defined functions; \
                                 available builtins are normalize, alpha, flatten, orflatten, \
                                 union, orunion, member, ormember, subset, intersect, \
                                 difference, powerset, toset, toorset, isempty, orisempty, \
                                 fst, snd)"
                            ))
                        }
                    };
                    self.advance(); // '('
                    let mut args = Vec::new();
                    if self.peek() != &Token::RParen {
                        args.push(self.expr()?);
                        while self.eat(&Token::Comma) {
                            args.push(self.expr()?);
                        }
                    }
                    self.expect(Token::RParen)?;
                    if args.len() != builtin.arity() {
                        return self.error(format!(
                            "{} expects {} argument(s), got {}",
                            builtin.name(),
                            builtin.arity(),
                            args.len()
                        ));
                    }
                    Ok(Expr::Call(builtin, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Token::LParen => {
                let first = self.expr()?;
                if self.eat(&Token::Comma) {
                    let second = self.expr()?;
                    self.expect(Token::RParen)?;
                    Ok(Expr::Pair(Box::new(first), Box::new(second)))
                } else {
                    self.expect(Token::RParen)?;
                    Ok(first)
                }
            }
            Token::LBrace => self.collection(Token::RBrace, true),
            Token::LOrSet => self.collection(Token::ROrSet, false),
            other => self.error(format!("unexpected token {other}")),
        }
    }

    /// Parse the inside of `{ … }` or `<| … |>`: either a literal list of
    /// elements or a comprehension.
    fn collection(&mut self, closing: Token, is_set: bool) -> Result<Expr, ParseError> {
        // empty collection
        if self.eat(&closing) {
            return Ok(if is_set {
                Expr::SetLit(Vec::new())
            } else {
                Expr::OrSetLit(Vec::new())
            });
        }
        let first = self.expr()?;
        if self.eat(&Token::Bar) {
            let qualifiers = self.qualifiers()?;
            self.expect(closing)?;
            return Ok(if is_set {
                Expr::SetComp {
                    head: Box::new(first),
                    qualifiers,
                }
            } else {
                Expr::OrSetComp {
                    head: Box::new(first),
                    qualifiers,
                }
            });
        }
        let mut items = vec![first];
        while self.eat(&Token::Comma) {
            items.push(self.expr()?);
        }
        self.expect(closing)?;
        Ok(if is_set {
            Expr::SetLit(items)
        } else {
            Expr::OrSetLit(items)
        })
    }

    fn qualifiers(&mut self) -> Result<Vec<Qualifier>, ParseError> {
        let mut out = Vec::new();
        loop {
            // generator: IDENT '<-' expr
            if let Token::Ident(name) = self.peek().clone() {
                if self.tokens.get(self.pos + 1) == Some(&Token::Arrow) {
                    self.advance();
                    self.advance();
                    let source = self.expr()?;
                    out.push(Qualifier::Generator(name, source));
                    if self.eat(&Token::Comma) {
                        continue;
                    }
                    return Ok(out);
                }
            }
            let guard = self.expr()?;
            out.push(Qualifier::Guard(guard));
            if self.eat(&Token::Comma) {
                continue;
            }
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cheap_design_query() {
        let e = parse("<| x | x <- normalize(db), x <= 100 |>").unwrap();
        match e {
            Expr::OrSetComp { qualifiers, .. } => {
                assert_eq!(qualifiers.len(), 2);
                assert!(matches!(qualifiers[0], Qualifier::Generator(..)));
                assert!(matches!(qualifiers[1], Qualifier::Guard(_)));
            }
            other => panic!("expected an or-set comprehension, got {other}"),
        }
    }

    #[test]
    fn parses_literals_and_pairs() {
        assert_eq!(parse("42").unwrap(), Expr::Int(42));
        assert_eq!(
            parse("(1, true)").unwrap(),
            Expr::Pair(Box::new(Expr::Int(1)), Box::new(Expr::Bool(true)))
        );
        assert_eq!(parse("{}").unwrap(), Expr::SetLit(vec![]));
        assert_eq!(parse("<| |>").unwrap(), Expr::OrSetLit(vec![]));
        assert_eq!(
            parse("{1, 2, 2}").unwrap(),
            Expr::SetLit(vec![Expr::Int(1), Expr::Int(2), Expr::Int(2)])
        );
    }

    #[test]
    fn parses_let_and_if() {
        let e = parse("let s = {1,2} in if member(1, s) then 1 else 0").unwrap();
        assert!(matches!(e, Expr::Let { .. }));
    }

    #[test]
    fn operator_precedence() {
        let e = parse("1 + 2 * 3 <= 10 && true").unwrap();
        // (&& ((<=) (+ 1 (* 2 3)) 10) true)
        match e {
            Expr::BinOp(BinOp::And, lhs, _) => match *lhs {
                Expr::BinOp(BinOp::Leq, l, _) => match *l {
                    Expr::BinOp(BinOp::Add, _, r) => {
                        assert!(matches!(*r, Expr::BinOp(BinOp::Mul, _, _)))
                    }
                    other => panic!("expected +, got {other}"),
                },
                other => panic!("expected <=, got {other}"),
            },
            other => panic!("expected &&, got {other}"),
        }
    }

    #[test]
    fn nested_comprehensions_parse() {
        let e = parse("{ (x, y) | x <- {1,2}, y <- {3,4}, x < y }").unwrap();
        match e {
            Expr::SetComp { qualifiers, .. } => assert_eq!(qualifiers.len(), 3),
            other => panic!("expected a set comprehension, got {other}"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("let = 3 in x").is_err());
        assert!(parse("foo(1)").is_err());
        assert!(parse("member(1)").is_err());
        assert!(parse("{1, }").is_err());
        assert!(parse("1 +").is_err());
        assert!(parse("(1, 2").is_err());
    }

    #[test]
    fn statements_distinguish_bindings_from_expressions() {
        assert!(matches!(
            parse_statement("let db = <|1,2|>").unwrap(),
            Statement::Bind(_, _)
        ));
        assert!(matches!(
            parse_statement("let db = <|1,2|> in db").unwrap(),
            Statement::Expr(_)
        ));
        assert!(matches!(
            parse_statement("1 + 2").unwrap(),
            Statement::Expr(_)
        ));
    }
}
