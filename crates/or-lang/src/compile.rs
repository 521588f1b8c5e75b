//! Elaboration of OrQL into or-NRA⁺ morphisms.
//!
//! This is the analogue of the paper's observation (Section 2) that the
//! comprehension-style surface syntax "(x | x ∈ normalize(DB), ischeap(x))"
//! elaborates into the algebraic form
//! `orμ ∘ ormap(cond(ischeap, orη, K<> ∘ !)) ∘ normalize`.
//!
//! Variables are compiled away by the standard categorical environment
//! translation.  An expression with free variables `v₀,…,vₙ₋₁` becomes a
//! morphism whose input is the left-nested **tuple** of their values,
//! `((v₀, v₁), v₂)` — for one variable its value itself, and for none any
//! input.  This is the row tuple of the physical engine, so the planner
//! compiles guards and heads against the engine's rows as they are.  A
//! variable is its own projection path into the tuple; `let` and the
//! generators of a nested comprehension extend the input to
//! `((t, b₀), b₁)` inside `⟨id, value⟩` and `map`/`ormap` after pairing
//! with `ρ₂`/`orρ₂`.
//!
//! The compiled morphism comes out **factored** as `e' ∘ π`, where `π` is
//! the longest projection path that every read of the tuple shares.  A read
//! of the tuple is a maximal `fst`/`snd` chain over a tuple variable that no
//! binder shadows; inside a `let` or a nested comprehension, the reads in
//! the bound values count, not the reads of the bound names.  One syntactic
//! pass finds `π` and nothing is inlined, so the result has the size of the
//! expression.  The factored form is what the engine's optimizers read:
//! `e'` pairs only at the type `π` projects to, which is what the paper's
//! Theorem 5.1 conditions ask of an operator below an α-expansion, and the
//! columnar kernels gather `π` as a field path.  Builtins keep their
//! algebraic shape (`ormember(a, b)` is `or_member ∘ ⟨a, b⟩`), and an
//! equality across two variables, whose sides share no prefix, stays
//! `eq ∘ ⟨f ∘ π₁, g ∘ π₂⟩` — the equi-join shape.

use std::fmt;

use or_nra::derived;
use or_nra::morphism::{Morphism as M, Prim};
use or_object::Value;

use crate::ast::{BinOp, Builtin, Expr, Qualifier};

/// An error produced during compilation (compilation is total on well-typed
/// input; errors indicate unbound variables or arity mistakes that the type
/// checker would also have caught).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

fn err<T>(message: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError {
        message: message.into(),
    })
}

/// Compile an expression whose free variables are exactly `vars` into a
/// morphism from the left-nested tuple `((vars[0], vars[1]), …, vars[n-1])`
/// of their values (`vars[0]`'s value itself when `n = 1`) to the
/// expression's value, factored as `e' ∘ π` (see the module docs).  A
/// later variable of the same name shadows an earlier one.
pub fn compile_with_env(expr: &Expr, vars: &[String]) -> Result<M, CompileError> {
    let mut shared: Option<Vec<M>> = None;
    expr.walk_scoped(&mut Vec::new(), &mut |e, bound| {
        let Some(path) = tuple_read(e, vars, bound) else {
            return true;
        };
        match &mut shared {
            None => shared = Some(path),
            Some(prefix) => {
                let common = prefix.iter().zip(&path).take_while(|(a, b)| a == b).count();
                prefix.truncate(common);
            }
        }
        false
    });
    let pi = shared.unwrap_or_default();
    let mut scope = Scope {
        vars,
        cut: pi.len(),
        bound: Vec::new(),
    };
    let body = compile(expr, &mut scope)?;
    Ok(match (pi.is_empty(), body) {
        (true, body) => body,
        (false, M::Id) => path(pi),
        (false, body) => M::compose(body, path(pi)),
    })
}

/// Compile a single-parameter query `param ↦ expr` into a morphism whose
/// input is the parameter value itself.
pub fn compile_query(expr: &Expr, param: &str) -> Result<M, CompileError> {
    compile_with_env(expr, &[param.to_string()])
}

/// Compile a closed expression into a morphism that ignores its input.
pub fn compile_closed(expr: &Expr) -> Result<M, CompileError> {
    Ok(M::Bang.then(compile_with_env(expr, &[])?))
}

/// The projection path (application order) of variable `i` of an
/// `n`-variable tuple `((v₀, v₁), v₂)`: `π₁ⁿ⁻¹` for `v₀`, `π₂ ∘ π₁ⁿ⁻¹⁻ⁱ`
/// for the others.
fn var_path(i: usize, n: usize) -> Vec<M> {
    let mut path = vec![M::Proj1; n - 1 - i];
    if i > 0 {
        path.push(M::Proj2);
    }
    path
}

/// The projection path into the tuple that `expr` reads, when `expr` is a
/// `fst`/`snd` chain over a tuple variable that `bound` does not shadow.
fn tuple_read(expr: &Expr, vars: &[String], bound: &[String]) -> Option<Vec<M>> {
    match expr {
        Expr::Var(name) if !bound.contains(name) => {
            let i = vars.iter().rposition(|v| v == name)?;
            Some(var_path(i, vars.len()))
        }
        Expr::Call(step @ (Builtin::Fst | Builtin::Snd), args) if args.len() == 1 => {
            let mut path = tuple_read(&args[0], vars, bound)?;
            path.push(if *step == Builtin::Fst {
                M::Proj1
            } else {
                M::Proj2
            });
            Some(path)
        }
        _ => None,
    }
}

/// A projection path as one morphism (`id` when empty).
fn path(steps: Vec<M>) -> M {
    steps.into_iter().reduce(M::then).unwrap_or(M::Id)
}

/// What a subexpression is compiled against: the input is `π(t)` — the
/// tuple of `vars`' values with the shared path's first `cut` steps applied
/// — extended by one component per name in `bound`, `((π(t), b₀), b₁)`.
struct Scope<'a> {
    vars: &'a [String],
    cut: usize,
    bound: Vec<String>,
}

fn compile(expr: &Expr, scope: &mut Scope<'_>) -> Result<M, CompileError> {
    if let Some(read) = tuple_read(expr, scope.vars, &scope.bound) {
        // below the binders to `π(t)`, then along the rest of the read
        let mut steps = vec![M::Proj1; scope.bound.len()];
        steps.extend_from_slice(&read[scope.cut..]);
        return Ok(path(steps));
    }
    match expr {
        Expr::Unit => Ok(M::constant(Value::Unit)),
        Expr::Int(i) => Ok(M::constant(Value::Int(*i))),
        Expr::Bool(b) => Ok(M::constant(Value::Bool(*b))),
        Expr::Str(s) => Ok(M::constant(Value::str(s.clone()))),
        Expr::Var(name) => match scope.bound.iter().rposition(|v| v == name) {
            Some(j) => {
                let mut steps = vec![M::Proj1; scope.bound.len() - 1 - j];
                steps.push(M::Proj2);
                Ok(path(steps))
            }
            None => err(format!("unbound variable {name}")),
        },
        Expr::Pair(a, b) => Ok(M::pair(compile(a, scope)?, compile(b, scope)?)),
        Expr::SetLit(items) => compile_collection(items, scope, true),
        Expr::OrSetLit(items) => compile_collection(items, scope, false),
        Expr::SetComp { head, qualifiers } => compile_comprehension(head, qualifiers, scope, true),
        Expr::OrSetComp { head, qualifiers } => {
            compile_comprehension(head, qualifiers, scope, false)
        }
        Expr::Let { name, value, body } => {
            let value_m = compile(value, scope)?;
            scope.bound.push(name.clone());
            let body_m = compile(body, scope);
            scope.bound.pop();
            Ok(M::pair(M::Id, value_m).then(body_m?))
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => Ok(M::cond(
            compile(cond, scope)?,
            compile(then_branch, scope)?,
            compile(else_branch, scope)?,
        )),
        Expr::BinOp(op, a, b) => {
            let ca = compile(a, scope)?;
            let cb = compile(b, scope)?;
            Ok(match op {
                BinOp::Add => M::pair(ca, cb).then(M::Prim(Prim::Plus)),
                BinOp::Sub => M::pair(ca, cb).then(M::Prim(Prim::Minus)),
                BinOp::Mul => M::pair(ca, cb).then(M::Prim(Prim::Times)),
                BinOp::Leq => M::pair(ca, cb).then(M::Prim(Prim::Leq)),
                BinOp::Lt => M::pair(ca, cb).then(M::Prim(Prim::Lt)),
                BinOp::Geq => M::pair(cb, ca).then(M::Prim(Prim::Leq)),
                BinOp::Gt => M::pair(cb, ca).then(M::Prim(Prim::Lt)),
                BinOp::And => M::pair(ca, cb).then(M::Prim(Prim::And)),
                BinOp::Or => M::pair(ca, cb).then(M::Prim(Prim::Or)),
                BinOp::Eq => M::pair(ca, cb).then(M::Eq),
                BinOp::Neq => M::pair(ca, cb).then(M::Eq).then(M::Prim(Prim::Not)),
            })
        }
        Expr::Not(a) => Ok(compile(a, scope)?.then(M::Prim(Prim::Not))),
        Expr::Call(builtin, args) => compile_call(*builtin, args, scope),
    }
}

fn compile_collection(
    items: &[Expr],
    scope: &mut Scope<'_>,
    is_set: bool,
) -> Result<M, CompileError> {
    let (empty, single, union): (M, M, M) = if is_set {
        (M::KEmptySet.after_bang(), M::Eta, M::Union)
    } else {
        (M::KEmptyOrSet.after_bang(), M::OrEta, M::OrUnion)
    };
    let mut acc: Option<M> = None;
    for item in items {
        let elem = compile(item, scope)?.then(single.clone());
        acc = Some(match acc {
            None => elem,
            Some(prev) => M::pair(prev, elem).then(union.clone()),
        });
    }
    Ok(acc.unwrap_or(empty))
}

fn compile_comprehension(
    head: &Expr,
    qualifiers: &[Qualifier],
    scope: &mut Scope<'_>,
    is_set: bool,
) -> Result<M, CompileError> {
    // `cur` maps the outer input to the collection of extended inputs
    // `(input, element)` accumulated so far.
    let (single, flatten, rho): (M, M, M) = if is_set {
        (M::Eta, M::Mu, M::Rho2)
    } else {
        (M::OrEta, M::OrMu, M::OrRho2)
    };
    let map_op = |f: M| if is_set { M::map(f) } else { M::ormap(f) };
    let select_op = |p: M| {
        if is_set {
            derived::select(p)
        } else {
            derived::or_select(p)
        }
    };
    let mut cur = single.clone();
    let mut added = 0usize;
    let mut result: Result<M, CompileError> = Ok(M::Id);
    for q in qualifiers {
        match q {
            Qualifier::Generator(name, source) => {
                let source_m = match compile(source, scope) {
                    Ok(m) => m,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                };
                // extend every input e with each element of source(e):
                // map(ρ ∘ ⟨id, source⟩) then flatten
                cur = cur
                    .then(map_op(M::pair(M::Id, source_m).then(rho.clone())))
                    .then(flatten.clone());
                scope.bound.push(name.clone());
                added += 1;
            }
            Qualifier::Guard(g) => {
                let guard_m = match compile(g, scope) {
                    Ok(m) => m,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                };
                cur = cur.then(select_op(guard_m));
            }
        }
    }
    if result.is_ok() {
        result = compile(head, scope).map(|head_m| cur.then(map_op(head_m)));
    }
    for _ in 0..added {
        scope.bound.pop();
    }
    result
}

fn compile_call(builtin: Builtin, args: &[Expr], scope: &mut Scope<'_>) -> Result<M, CompileError> {
    if args.len() != builtin.arity() {
        return err(format!(
            "{} expects {} argument(s), got {}",
            builtin.name(),
            builtin.arity(),
            args.len()
        ));
    }
    let unary = |m: M, args: &[Expr], scope: &mut Scope<'_>| -> Result<M, CompileError> {
        Ok(compile(&args[0], scope)?.then(m))
    };
    let binary = |m: M, args: &[Expr], scope: &mut Scope<'_>| -> Result<M, CompileError> {
        let a = compile(&args[0], scope)?;
        let b = compile(&args[1], scope)?;
        Ok(M::pair(a, b).then(m))
    };
    match builtin {
        Builtin::Normalize => unary(M::Normalize, args, scope),
        Builtin::Alpha => unary(M::Alpha, args, scope),
        Builtin::Flatten => unary(M::Mu, args, scope),
        Builtin::OrFlatten => unary(M::OrMu, args, scope),
        Builtin::Powerset => unary(M::Powerset, args, scope),
        Builtin::ToSet => unary(M::OrToSet, args, scope),
        Builtin::ToOrSet => unary(M::SetToOr, args, scope),
        Builtin::IsEmpty => unary(derived::is_empty(), args, scope),
        Builtin::OrIsEmpty => unary(derived::or_is_empty(), args, scope),
        Builtin::Fst => unary(M::Proj1, args, scope),
        Builtin::Snd => unary(M::Proj2, args, scope),
        Builtin::Union => binary(M::Union, args, scope),
        Builtin::OrUnion => binary(M::OrUnion, args, scope),
        Builtin::Member => binary(derived::member(), args, scope),
        Builtin::OrMember => binary(derived::or_member(), args, scope),
        Builtin::Subset => binary(derived::subset(), args, scope),
        Builtin::Intersect => binary(derived::intersect(), args, scope),
        Builtin::Difference => binary(derived::difference(), args, scope),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use or_nra::eval::eval;
    use or_object::Value;

    fn run_closed(src: &str) -> Value {
        let expr = parse(src).unwrap();
        let m = compile_closed(&expr).unwrap();
        eval(&m, &Value::Unit).unwrap()
    }

    fn run_query(src: &str, param: &str, input: &Value) -> Value {
        let expr = parse(src).unwrap();
        let m = compile_query(&expr, param).unwrap();
        eval(&m, input).unwrap()
    }

    #[test]
    fn closed_expressions_compile_and_evaluate() {
        assert_eq!(run_closed("1 + 2 * 3"), Value::Int(7));
        assert_eq!(run_closed("{1, 2, 2}"), Value::int_set([1, 2]));
        assert_eq!(run_closed("<|3, 1|>"), Value::int_orset([1, 3]));
        assert_eq!(
            run_closed("let s = {1,2} in if member(1, s) then 1 else 0"),
            Value::Int(1)
        );
        assert_eq!(
            run_closed("(1 != 2, 3 > 2)"),
            Value::pair(Value::Bool(true), Value::Bool(true))
        );
        assert_eq!(run_closed("{}"), Value::empty_set());
    }

    #[test]
    fn comprehensions_compile_to_monad_operations() {
        assert_eq!(
            run_closed("{ x + 1 | x <- {1,2,3}, x <= 2 }"),
            Value::int_set([2, 3])
        );
        assert_eq!(
            run_closed("<| (x, y) | x <- <|1,2|>, y <- <|5,6|>, x + y <= 7 |>"),
            Value::orset([
                Value::pair(Value::Int(1), Value::Int(5)),
                Value::pair(Value::Int(1), Value::Int(6)),
                Value::pair(Value::Int(2), Value::Int(5)),
            ])
        );
    }

    #[test]
    fn the_papers_cheap_design_query_compiles_and_runs() {
        // the database is an or-set of or-sets of costs: one inner or-set per
        // partially designed component
        let db = Value::orset([Value::int_orset([120, 80]), Value::int_orset([200, 150])]);
        let out = run_query("<| x | x <- normalize(db), x <= 100 |>", "db", &db);
        assert_eq!(out, Value::int_orset([80]));
    }

    #[test]
    fn queries_over_nested_databases() {
        // possible offices per person; who possibly sits in 212?
        let db = Value::set([
            Value::pair(Value::str("Joe"), Value::int_orset([515])),
            Value::pair(Value::str("Mary"), Value::int_orset([515, 212])),
        ]);
        let out = run_query("{ fst(r) | r <- db, ormember(212, snd(r)) }", "db", &db);
        assert_eq!(out, Value::set([Value::str("Mary")]));
    }

    #[test]
    fn alpha_and_powerset_builtins() {
        assert_eq!(
            run_closed("alpha({<|1,2|>, <|3|>})"),
            Value::orset([Value::int_set([1, 3]), Value::int_set([2, 3])])
        );
        assert_eq!(run_closed("powerset({1,2})").elements().unwrap().len(), 4);
    }

    #[test]
    fn unbound_variables_are_compile_errors() {
        let expr = parse("x + 1").unwrap();
        assert!(compile_closed(&expr).is_err());
    }

    #[test]
    fn let_scoping_restores_environment() {
        // the inner let must not leak its binding into the second operand
        assert_eq!(
            run_closed("(let x = 1 in x + 1) + (let y = 10 in y)"),
            Value::Int(12)
        );
    }

    #[test]
    fn nested_comprehensions_with_shadowing() {
        assert_eq!(
            run_closed("{ { x * y | y <- {1,2} } | x <- {10} }"),
            Value::set([Value::int_set([10, 20])])
        );
    }
}
