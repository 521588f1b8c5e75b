//! The abstract syntax of OrQL.

use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Structural equality.
    Eq,
    /// Structural inequality.
    Neq,
    /// Integer less-or-equal.
    Leq,
    /// Integer strictly-less.
    Lt,
    /// Integer greater-or-equal.
    Geq,
    /// Integer strictly-greater.
    Gt,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
}

impl BinOp {
    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Eq => "==",
            BinOp::Neq => "!=",
            BinOp::Leq => "<=",
            BinOp::Lt => "<",
            BinOp::Geq => ">=",
            BinOp::Gt => ">",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Built-in functions of OrQL.  Each corresponds to an or-NRA(⁺) operator or
/// to a member of the derived library (the OR-SML "libraries of derived
/// functions" of Section 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `normalize(e)` — the or-NRA⁺ primitive.
    Normalize,
    /// `alpha(e)` — combine a set of or-sets.
    Alpha,
    /// `flatten(e)` — `μ` on sets of sets.
    Flatten,
    /// `orflatten(e)` — `orμ` on or-sets of or-sets.
    OrFlatten,
    /// `union(a, b)`.
    Union,
    /// `orunion(a, b)`.
    OrUnion,
    /// `member(x, s)`.
    Member,
    /// `ormember(x, s)`.
    OrMember,
    /// `subset(a, b)`.
    Subset,
    /// `intersect(a, b)`.
    Intersect,
    /// `difference(a, b)`.
    Difference,
    /// `powerset(e)` (the Abiteboul–Beeri baseline primitive).
    Powerset,
    /// `toset(e)` — `ortoset`.
    ToSet,
    /// `toorset(e)` — `settoor`.
    ToOrSet,
    /// `isempty(e)` on sets.
    IsEmpty,
    /// `orisempty(e)` on or-sets.
    OrIsEmpty,
    /// `fst(e)`.
    Fst,
    /// `snd(e)`.
    Snd,
}

impl Builtin {
    /// Surface name of the builtin.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Normalize => "normalize",
            Builtin::Alpha => "alpha",
            Builtin::Flatten => "flatten",
            Builtin::OrFlatten => "orflatten",
            Builtin::Union => "union",
            Builtin::OrUnion => "orunion",
            Builtin::Member => "member",
            Builtin::OrMember => "ormember",
            Builtin::Subset => "subset",
            Builtin::Intersect => "intersect",
            Builtin::Difference => "difference",
            Builtin::Powerset => "powerset",
            Builtin::ToSet => "toset",
            Builtin::ToOrSet => "toorset",
            Builtin::IsEmpty => "isempty",
            Builtin::OrIsEmpty => "orisempty",
            Builtin::Fst => "fst",
            Builtin::Snd => "snd",
        }
    }

    /// Number of arguments the builtin expects.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Union
            | Builtin::OrUnion
            | Builtin::Member
            | Builtin::OrMember
            | Builtin::Subset
            | Builtin::Intersect
            | Builtin::Difference => 2,
            _ => 1,
        }
    }

    /// Look up a builtin by surface name.
    pub fn by_name(name: &str) -> Option<Builtin> {
        use Builtin::*;
        let all = [
            Normalize, Alpha, Flatten, OrFlatten, Union, OrUnion, Member, OrMember, Subset,
            Intersect, Difference, Powerset, ToSet, ToOrSet, IsEmpty, OrIsEmpty, Fst, Snd,
        ];
        all.into_iter().find(|b| b.name() == name)
    }
}

/// A comprehension qualifier: a generator `x <- e` or a boolean guard.
#[derive(Debug, Clone, PartialEq)]
pub enum Qualifier {
    /// `x <- e`.
    Generator(String, Expr),
    /// A boolean guard expression.
    Guard(Expr),
}

/// An OrQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The unit constant.
    Unit,
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// Variable reference.
    Var(String),
    /// Pair `(a, b)`.
    Pair(Box<Expr>, Box<Expr>),
    /// Set literal `{e₁, …, eₙ}`.
    SetLit(Vec<Expr>),
    /// Or-set literal `<| e₁, …, eₙ |>`.
    OrSetLit(Vec<Expr>),
    /// Set comprehension `{ head | qualifiers }`.
    SetComp {
        /// The head expression.
        head: Box<Expr>,
        /// The qualifiers, evaluated left to right.
        qualifiers: Vec<Qualifier>,
    },
    /// Or-set comprehension `<| head | qualifiers |>`.
    OrSetComp {
        /// The head expression.
        head: Box<Expr>,
        /// The qualifiers, evaluated left to right.
        qualifiers: Vec<Qualifier>,
    },
    /// `let name = value in body`.
    Let {
        /// Bound variable.
        name: String,
        /// Bound expression.
        value: Box<Expr>,
        /// Body in which the variable is visible.
        body: Box<Expr>,
    },
    /// `if cond then a else b`.
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then-branch.
        then_branch: Box<Expr>,
        /// Else-branch.
        else_branch: Box<Expr>,
    },
    /// Binary operation.
    BinOp(BinOp, Box<Expr>, Box<Expr>),
    /// Boolean negation `!e`.
    Not(Box<Expr>),
    /// Builtin application.
    Call(Builtin, Vec<Expr>),
}

impl Expr {
    /// Number of AST nodes (used in statistics and tests).
    pub fn size(&self) -> usize {
        match self {
            Expr::Unit | Expr::Int(_) | Expr::Bool(_) | Expr::Str(_) | Expr::Var(_) => 1,
            Expr::Pair(a, b) | Expr::BinOp(_, a, b) => 1 + a.size() + b.size(),
            Expr::Not(a) => 1 + a.size(),
            Expr::SetLit(items) | Expr::OrSetLit(items) => {
                1 + items.iter().map(Expr::size).sum::<usize>()
            }
            Expr::SetComp { head, qualifiers } | Expr::OrSetComp { head, qualifiers } => {
                1 + head.size()
                    + qualifiers
                        .iter()
                        .map(|q| match q {
                            Qualifier::Generator(_, e) | Qualifier::Guard(e) => e.size(),
                        })
                        .sum::<usize>()
            }
            Expr::Let { value, body, .. } => 1 + value.size() + body.size(),
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => 1 + cond.size() + then_branch.size() + else_branch.size(),
            Expr::Call(_, args) => 1 + args.iter().map(Expr::size).sum::<usize>(),
        }
    }

    /// Replace every free occurrence of `name` with `value`, stopping at
    /// the binders that rebind `name`: a `let`'s body, and the qualifiers
    /// and head after a generator.  `value` must be closed, so no binder
    /// can capture a variable of it.
    pub fn subst(&mut self, name: &str, value: &Expr) {
        let go = |e: &mut Expr| e.subst(name, value);
        match self {
            Expr::Var(x) if x == name => *self = value.clone(),
            Expr::Unit | Expr::Int(_) | Expr::Bool(_) | Expr::Str(_) | Expr::Var(_) => {}
            Expr::Pair(a, b) | Expr::BinOp(_, a, b) => [a, b].into_iter().for_each(|e| go(e)),
            Expr::Not(a) => go(a),
            Expr::SetLit(items) | Expr::OrSetLit(items) | Expr::Call(_, items) => {
                items.iter_mut().for_each(go)
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => [cond, then_branch, else_branch]
                .into_iter()
                .for_each(|e| go(e)),
            Expr::Let {
                name: x,
                value: v,
                body,
            } => {
                go(v);
                if x != name {
                    go(body);
                }
            }
            Expr::SetComp { head, qualifiers } | Expr::OrSetComp { head, qualifiers } => {
                for q in qualifiers {
                    match q {
                        Qualifier::Guard(g) => go(g),
                        Qualifier::Generator(x, source) => {
                            go(source);
                            if x == name {
                                return;
                            }
                        }
                    }
                }
                go(head);
            }
        }
    }

    /// The free variables of the expression, in sorted order.
    ///
    /// `let` and comprehension generators bind; a generator's source is
    /// evaluated *before* its variable comes into scope, and later
    /// qualifiers see the variables of earlier generators.
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = std::collections::BTreeSet::new();
        self.walk_scoped(&mut Vec::new(), &mut |e, bound| {
            if let Expr::Var(name) = e {
                if !bound.contains(name) {
                    out.insert(name.clone());
                }
            }
            true
        });
        out.into_iter().collect()
    }

    /// Visit the expression and its subexpressions, outermost first, each
    /// with the names bound around it by `let`s and comprehension
    /// generators (innermost last), under the scoping of
    /// [`Expr::free_vars`].  `visit` returns whether to descend into the
    /// node's children.
    pub(crate) fn walk_scoped(
        &self,
        bound: &mut Vec<String>,
        visit: &mut impl FnMut(&Expr, &[String]) -> bool,
    ) {
        if !visit(self, bound) {
            return;
        }
        match self {
            Expr::Unit | Expr::Int(_) | Expr::Bool(_) | Expr::Str(_) | Expr::Var(_) => {}
            Expr::Pair(a, b) | Expr::BinOp(_, a, b) => {
                a.walk_scoped(bound, visit);
                b.walk_scoped(bound, visit);
            }
            Expr::Not(a) => a.walk_scoped(bound, visit),
            Expr::SetLit(items) | Expr::OrSetLit(items) | Expr::Call(_, items) => {
                for item in items {
                    item.walk_scoped(bound, visit);
                }
            }
            Expr::SetComp { head, qualifiers } | Expr::OrSetComp { head, qualifiers } => {
                let depth = bound.len();
                for q in qualifiers {
                    match q {
                        Qualifier::Generator(name, source) => {
                            source.walk_scoped(bound, visit);
                            bound.push(name.clone());
                        }
                        Qualifier::Guard(g) => g.walk_scoped(bound, visit),
                    }
                }
                head.walk_scoped(bound, visit);
                bound.truncate(depth);
            }
            Expr::Let { name, value, body } => {
                value.walk_scoped(bound, visit);
                bound.push(name.clone());
                body.walk_scoped(bound, visit);
                bound.pop();
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.walk_scoped(bound, visit);
                then_branch.walk_scoped(bound, visit);
                else_branch.walk_scoped(bound, visit);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list(f: &mut fmt::Formatter<'_>, items: &[Expr]) -> fmt::Result {
            for (i, e) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
            Ok(())
        }
        fn quals(f: &mut fmt::Formatter<'_>, qs: &[Qualifier]) -> fmt::Result {
            for (i, q) in qs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match q {
                    Qualifier::Generator(x, e) => write!(f, "{x} <- {e}")?,
                    Qualifier::Guard(e) => write!(f, "{e}")?,
                }
            }
            Ok(())
        }
        match self {
            Expr::Unit => write!(f, "unit"),
            Expr::Int(i) => write!(f, "{i}"),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Str(s) => write!(f, "{s:?}"),
            Expr::Var(x) => write!(f, "{x}"),
            Expr::Pair(a, b) => write!(f, "({a}, {b})"),
            Expr::SetLit(items) => {
                write!(f, "{{")?;
                list(f, items)?;
                write!(f, "}}")
            }
            Expr::OrSetLit(items) => {
                write!(f, "<|")?;
                list(f, items)?;
                write!(f, "|>")
            }
            Expr::SetComp { head, qualifiers } => {
                write!(f, "{{ {head} | ")?;
                quals(f, qualifiers)?;
                write!(f, " }}")
            }
            Expr::OrSetComp { head, qualifiers } => {
                write!(f, "<| {head} | ")?;
                quals(f, qualifiers)?;
                write!(f, " |>")
            }
            Expr::Let { name, value, body } => write!(f, "let {name} = {value} in {body}"),
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => write!(f, "if {cond} then {then_branch} else {else_branch}"),
            Expr::BinOp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Not(a) => write!(f, "!{a}"),
            Expr::Call(b, args) => {
                write!(f, "{}(", b.name())?;
                list(f, args)?;
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_lookup_by_name() {
        assert_eq!(Builtin::by_name("normalize"), Some(Builtin::Normalize));
        assert_eq!(Builtin::by_name("union"), Some(Builtin::Union));
        assert_eq!(Builtin::by_name("nosuch"), None);
        assert_eq!(Builtin::Union.arity(), 2);
        assert_eq!(Builtin::Normalize.arity(), 1);
    }

    #[test]
    fn substitution_stops_at_rebinding_binders() {
        let subst = |src: &str| {
            let mut e = crate::parser::parse(src).unwrap();
            e.subst("k", &Expr::Int(7));
            e.to_string()
        };
        assert_eq!(subst("k + k"), "(k + k)".replace('k', "7"));
        assert_eq!(subst("let k = k in k"), "let k = 7 in k");
        assert_eq!(subst("let j = k in k"), "let j = 7 in 7");
        assert_eq!(
            subst("{ k | x <- k, x == k, k <- x, k > 1 }"),
            "{ k | x <- 7, (x == 7), k <- x, (k > 1) }"
        );
        assert_eq!(subst("<| x | x <- k |>"), "<| x | x <- 7 |>");
    }

    #[test]
    fn display_round_trips_informally() {
        let e = Expr::OrSetComp {
            head: Box::new(Expr::Var("x".into())),
            qualifiers: vec![
                Qualifier::Generator(
                    "x".into(),
                    Expr::Call(Builtin::Normalize, vec![Expr::Var("db".into())]),
                ),
                Qualifier::Guard(Expr::BinOp(
                    BinOp::Leq,
                    Box::new(Expr::Var("x".into())),
                    Box::new(Expr::Int(100)),
                )),
            ],
        };
        assert_eq!(e.to_string(), "<| x | x <- normalize(db), (x <= 100) |>");
        assert!(e.size() > 4);
    }
}
