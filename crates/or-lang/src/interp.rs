//! A direct, environment-based interpreter for OrQL.
//!
//! The interpreter implements the same semantics as compilation to or-NRA
//! followed by evaluation ([`crate::compile`]); having both lets the tests
//! cross-check the elaboration, and gives the REPL a path that avoids
//! building intermediate morphisms for every keystroke.
//!
//! The interpreter honors the same admission-control budgets as the engine
//! ([`InterpLimits`]): a wall-clock deadline checked on a stride through
//! the evaluation loop, and a denotation budget checked — via the
//! closed-form [`denotation_count`], so the check costs O(value size), not
//! O(budget) — before the two builtins whose output is
//! exponential in their input (`normalize`, `alpha`).  This closes the PR 8
//! gap where a statement falling back from the engine escaped the server's
//! per-query budgets.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use or_nra::normalize::{denotation_count, normalize_value};
use or_object::alpha::alpha_set;
use or_object::Value;

use crate::ast::{BinOp, Builtin, Expr, Qualifier};

/// A runtime error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    /// Description of the problem.
    pub message: String,
    /// What kind of failure it is.
    pub kind: InterpErrorKind,
}

/// The kinds of [`InterpError`] a caller tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpErrorKind {
    /// An α-expansion's argument denoted more complete instances than the
    /// denotation budget ([`InterpLimits`]) admits.
    DenotationBudget,
    /// Any other failure, a passed deadline included.
    Other,
}

impl InterpError {
    fn new(message: impl Into<String>) -> InterpError {
        InterpError {
            message: message.into(),
            kind: InterpErrorKind::Other,
        }
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

/// A runtime environment mapping variable names to values.
pub type Env = HashMap<String, Value>;

/// Admission-control budgets for one interpreted statement — the
/// interpreter-side mirror of the engine's `ExecConfig::{or_budget,
/// time_budget}`, built once per statement by the session layer.
#[derive(Debug, Clone, Copy)]
pub struct InterpLimits {
    /// Absolute wall-clock deadline (`None` = unbounded; also `None` when
    /// `now + budget` overflows the clock, which only an effectively
    /// unbounded budget can do).
    deadline: Option<Instant>,
    /// The configured wall-clock budget in milliseconds, kept for error
    /// messages.
    budget_ms: u128,
    /// Denotation budget: a value whose normalization denotes more than
    /// this many complete instances is rejected before it is built.
    denotations: Option<u64>,
}

impl InterpLimits {
    /// No budgets: the interpreter behaves exactly as before.
    pub fn unbounded() -> InterpLimits {
        InterpLimits {
            deadline: None,
            budget_ms: 0,
            denotations: None,
        }
    }

    /// Budgets for one statement.  The deadline clock starts **now**, so
    /// build this right before interpreting; a zero `time_budget` rejects
    /// the statement at admission, matching the engine's `Deadline`
    /// semantics.
    pub fn new(denotations: Option<u64>, time_budget: Option<Duration>) -> InterpLimits {
        InterpLimits {
            deadline: time_budget.and_then(|b| Instant::now().checked_add(b)),
            budget_ms: time_budget.map(|b| b.as_millis()).unwrap_or(0),
            denotations,
        }
    }

    fn time_error(&self) -> InterpError {
        InterpError::new(format!(
            "time budget exceeded: the statement ran past its {} ms wall-clock budget",
            self.budget_ms
        ))
    }
}

impl Default for InterpLimits {
    fn default() -> Self {
        InterpLimits::unbounded()
    }
}

/// Per-statement interpreter context: the budgets plus a stride counter so
/// the deadline clock is read once per 256 evaluation steps, not on every
/// node.
struct Ctx<'a> {
    limits: &'a InterpLimits,
    ticks: Cell<u32>,
}

impl Ctx<'_> {
    /// One evaluation step: every 256th step reads the clock.
    fn tick(&self) -> Result<(), InterpError> {
        let Some(deadline) = self.limits.deadline else {
            return Ok(());
        };
        let t = self.ticks.get().wrapping_add(1);
        self.ticks.set(t);
        if t % 256 == 0 && Instant::now() >= deadline {
            return Err(self.limits.time_error());
        }
        Ok(())
    }

    /// Unstrided deadline check, for admission and for just-before points
    /// of no return.
    fn check_deadline(&self) -> Result<(), InterpError> {
        match self.limits.deadline {
            Some(d) if Instant::now() >= d => Err(self.limits.time_error()),
            _ => Ok(()),
        }
    }

    /// Denotation-budget admission for an exponential-output builtin:
    /// counts `v`'s complete denotations in closed form *before* anything
    /// is materialized.
    fn check_denotations(&self, v: &Value, what: &str) -> Result<(), InterpError> {
        let Some(budget) = self.limits.denotations else {
            return Ok(());
        };
        let total = denotation_count(v);
        if total > u128::from(budget) {
            return Err(InterpError {
                message: format!(
                    "or-expansion budget exceeded: the argument of {what} denotes {total} \
                     complete instances but the budget is {budget}"
                ),
                kind: InterpErrorKind::DenotationBudget,
            });
        }
        Ok(())
    }
}

/// Evaluate an expression in an environment, with no budgets.
pub fn interpret(expr: &Expr, env: &Env) -> Result<Value, InterpError> {
    interpret_limited(expr, env, &InterpLimits::unbounded())
}

/// Evaluate an expression in an environment under admission-control
/// budgets.  A zero time budget rejects the statement before any work;
/// otherwise the deadline is checked on a stride through the evaluation
/// loop, so an over-budget statement stops within a bounded amount of work
/// of its deadline instead of running to completion.
pub fn interpret_limited(
    expr: &Expr,
    env: &Env,
    limits: &InterpLimits,
) -> Result<Value, InterpError> {
    let ctx = Ctx {
        limits,
        ticks: Cell::new(0),
    };
    ctx.check_deadline()?;
    eval_expr(expr, env, &ctx)
}

fn eval_expr(expr: &Expr, env: &Env, ctx: &Ctx<'_>) -> Result<Value, InterpError> {
    ctx.tick()?;
    match expr {
        Expr::Unit => Ok(Value::Unit),
        Expr::Int(i) => Ok(Value::Int(*i)),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Str(s) => Ok(Value::str(s.clone())),
        Expr::Var(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| InterpError::new(format!("unbound variable {name}"))),
        Expr::Pair(a, b) => Ok(Value::pair(
            eval_expr(a, env, ctx)?,
            eval_expr(b, env, ctx)?,
        )),
        Expr::SetLit(items) => Ok(Value::set(
            items
                .iter()
                .map(|e| eval_expr(e, env, ctx))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Expr::OrSetLit(items) => Ok(Value::orset(
            items
                .iter()
                .map(|e| eval_expr(e, env, ctx))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Expr::SetComp { head, qualifiers } => {
            let results = run_comprehension(head, qualifiers, env, true, ctx)?;
            Ok(Value::set(results))
        }
        Expr::OrSetComp { head, qualifiers } => {
            let results = run_comprehension(head, qualifiers, env, false, ctx)?;
            Ok(Value::orset(results))
        }
        Expr::Let { name, value, body } => {
            let v = eval_expr(value, env, ctx)?;
            let mut inner = env.clone();
            inner.insert(name.clone(), v);
            eval_expr(body, &inner, ctx)
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => match eval_expr(cond, env, ctx)? {
            Value::Bool(true) => eval_expr(then_branch, env, ctx),
            Value::Bool(false) => eval_expr(else_branch, env, ctx),
            other => Err(InterpError::new(format!(
                "condition did not evaluate to a boolean: {other}"
            ))),
        },
        Expr::BinOp(op, a, b) => {
            let va = eval_expr(a, env, ctx)?;
            let vb = eval_expr(b, env, ctx)?;
            binop(*op, &va, &vb)
        }
        Expr::Not(a) => match eval_expr(a, env, ctx)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(InterpError::new(format!(
                "! expects a boolean, got {other}"
            ))),
        },
        Expr::Call(builtin, args) => {
            let values: Vec<Value> = args
                .iter()
                .map(|e| eval_expr(e, env, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            call(*builtin, &values, ctx)
        }
    }
}

fn run_comprehension(
    head: &Expr,
    qualifiers: &[Qualifier],
    env: &Env,
    is_set: bool,
    ctx: &Ctx<'_>,
) -> Result<Vec<Value>, InterpError> {
    // One mutable environment, rebound in place as the qualifier nest is
    // walked depth-first.  A comprehension over n rows costs O(n) item
    // insertions — not n clones of the entire environment, which for a
    // session holding several large relations multiplies every generated
    // row by the size of the whole database.
    let mut scratch = env.clone();
    let mut out = Vec::new();
    comprehension_step(head, qualifiers, &mut scratch, is_set, &mut out, ctx)?;
    Ok(out)
}

/// Process the first remaining qualifier (or, when none remain, evaluate the
/// head) under the current bindings, accumulating produced values in `out`.
///
/// Generator variables are inserted directly into `env` and the previous
/// binding (if any) is restored once the generator's loop completes — a
/// *later* generator may shadow a name an earlier generator's source reads
/// on its next iteration, e.g. `{ b | a <- xs, b <- g, g <- ys }` where the
/// session also binds `g`.  Errors abort the whole comprehension, so no
/// restoration is needed on the error path (`env` is a private scratch
/// clone).
fn comprehension_step(
    head: &Expr,
    qualifiers: &[Qualifier],
    env: &mut Env,
    is_set: bool,
    out: &mut Vec<Value>,
    ctx: &Ctx<'_>,
) -> Result<(), InterpError> {
    let Some((q, rest)) = qualifiers.split_first() else {
        out.push(eval_expr(head, env, ctx)?);
        return Ok(());
    };
    match q {
        Qualifier::Generator(name, source) => {
            let items = match (eval_expr(source, env, ctx)?, is_set) {
                (Value::Set(items), true) => items,
                (Value::OrSet(items), false) => items,
                (other, true) => {
                    return Err(InterpError::new(format!(
                        "set comprehension generator must range over a set, got {other}"
                    )))
                }
                (other, false) => {
                    return Err(InterpError::new(format!(
                        "or-set comprehension generator must range over an or-set, got {other}"
                    )))
                }
            };
            let shadowed = env.remove(name);
            for item in items {
                ctx.tick()?;
                env.insert(name.clone(), item);
                comprehension_step(head, rest, env, is_set, out, ctx)?;
            }
            match shadowed {
                Some(prev) => env.insert(name.clone(), prev),
                None => env.remove(name),
            };
            Ok(())
        }
        Qualifier::Guard(g) => match eval_expr(g, env, ctx)? {
            Value::Bool(true) => comprehension_step(head, rest, env, is_set, out, ctx),
            Value::Bool(false) => Ok(()),
            other => Err(InterpError::new(format!(
                "comprehension guard must be boolean, got {other}"
            ))),
        },
    }
}

fn binop(op: BinOp, a: &Value, b: &Value) -> Result<Value, InterpError> {
    let ints = |a: &Value, b: &Value| -> Result<(i64, i64), InterpError> {
        match (a.as_int(), b.as_int()) {
            (Some(x), Some(y)) => Ok((x, y)),
            _ => Err(InterpError::new(format!(
                "{} expects integers, got {a} and {b}",
                op.symbol()
            ))),
        }
    };
    let bools = |a: &Value, b: &Value| -> Result<(bool, bool), InterpError> {
        match (a.as_bool(), b.as_bool()) {
            (Some(x), Some(y)) => Ok((x, y)),
            _ => Err(InterpError::new(format!(
                "{} expects booleans, got {a} and {b}",
                op.symbol()
            ))),
        }
    };
    Ok(match op {
        BinOp::Add => Value::Int(ints(a, b)?.0.wrapping_add(ints(a, b)?.1)),
        BinOp::Sub => Value::Int(ints(a, b)?.0.wrapping_sub(ints(a, b)?.1)),
        BinOp::Mul => Value::Int(ints(a, b)?.0.wrapping_mul(ints(a, b)?.1)),
        BinOp::Leq => Value::Bool(ints(a, b)?.0 <= ints(a, b)?.1),
        BinOp::Lt => Value::Bool(ints(a, b)?.0 < ints(a, b)?.1),
        BinOp::Geq => Value::Bool(ints(a, b)?.0 >= ints(a, b)?.1),
        BinOp::Gt => Value::Bool(ints(a, b)?.0 > ints(a, b)?.1),
        BinOp::And => Value::Bool(bools(a, b)?.0 && bools(a, b)?.1),
        BinOp::Or => Value::Bool(bools(a, b)?.0 || bools(a, b)?.1),
        BinOp::Eq => Value::Bool(a == b),
        BinOp::Neq => Value::Bool(a != b),
    })
}

fn call(builtin: Builtin, args: &[Value], ctx: &Ctx<'_>) -> Result<Value, InterpError> {
    let set_items = |v: &Value, what: &str| -> Result<Vec<Value>, InterpError> {
        match v {
            Value::Set(items) => Ok(items.clone()),
            other => Err(InterpError::new(format!(
                "{what} expects a set, got {other}"
            ))),
        }
    };
    let orset_items = |v: &Value, what: &str| -> Result<Vec<Value>, InterpError> {
        match v {
            Value::OrSet(items) => Ok(items.clone()),
            other => Err(InterpError::new(format!(
                "{what} expects an or-set, got {other}"
            ))),
        }
    };
    match builtin {
        Builtin::Normalize => {
            // The one exponential-output operation the fallback path can
            // reach: admit it against the denotation budget (closed-form
            // count, same semantics as the engine's OrExpand admission)
            // and the deadline before materializing anything.
            ctx.check_denotations(&args[0], "normalize")?;
            ctx.check_deadline()?;
            Ok(normalize_value(&args[0]))
        }
        Builtin::Alpha => {
            // alpha produces exactly one output per complete denotation of
            // its input, so the same closed-form admission applies.
            ctx.check_denotations(&args[0], "alpha")?;
            ctx.check_deadline()?;
            alpha_set(&args[0]).map_err(|e| InterpError::new(e.to_string()))
        }
        Builtin::Flatten => {
            let mut out = Vec::new();
            for item in set_items(&args[0], "flatten")? {
                out.extend(set_items(&item, "flatten")?);
            }
            Ok(Value::set(out))
        }
        Builtin::OrFlatten => {
            let mut out = Vec::new();
            for item in orset_items(&args[0], "orflatten")? {
                out.extend(orset_items(&item, "orflatten")?);
            }
            Ok(Value::orset(out))
        }
        Builtin::Union => {
            let mut a = set_items(&args[0], "union")?;
            a.extend(set_items(&args[1], "union")?);
            Ok(Value::set(a))
        }
        Builtin::OrUnion => {
            let mut a = orset_items(&args[0], "orunion")?;
            a.extend(orset_items(&args[1], "orunion")?);
            Ok(Value::orset(a))
        }
        Builtin::Member => Ok(Value::Bool(
            set_items(&args[1], "member")?.contains(&args[0]),
        )),
        Builtin::OrMember => Ok(Value::Bool(
            orset_items(&args[1], "ormember")?.contains(&args[0]),
        )),
        Builtin::Subset => {
            let a = set_items(&args[0], "subset")?;
            let b = set_items(&args[1], "subset")?;
            Ok(Value::Bool(a.iter().all(|x| b.contains(x))))
        }
        Builtin::Intersect => {
            let a = set_items(&args[0], "intersect")?;
            let b = set_items(&args[1], "intersect")?;
            Ok(Value::set(a.into_iter().filter(|x| b.contains(x))))
        }
        Builtin::Difference => {
            let a = set_items(&args[0], "difference")?;
            let b = set_items(&args[1], "difference")?;
            Ok(Value::set(a.into_iter().filter(|x| !b.contains(x))))
        }
        Builtin::Powerset => {
            let items = set_items(&args[0], "powerset")?;
            if items.len() > 20 {
                return Err(InterpError::new(format!(
                    "powerset of a {}-element set is too large",
                    items.len()
                )));
            }
            let mut out = Vec::with_capacity(1 << items.len());
            for mask in 0u32..(1u32 << items.len()) {
                out.push(Value::set(
                    items
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, v)| v.clone()),
                ));
            }
            Ok(Value::set(out))
        }
        Builtin::ToSet => Ok(Value::set(orset_items(&args[0], "toset")?)),
        Builtin::ToOrSet => Ok(Value::orset(set_items(&args[0], "toorset")?)),
        Builtin::IsEmpty => Ok(Value::Bool(set_items(&args[0], "isempty")?.is_empty())),
        Builtin::OrIsEmpty => Ok(Value::Bool(orset_items(&args[0], "orisempty")?.is_empty())),
        Builtin::Fst => match args[0].as_pair() {
            Some((a, _)) => Ok(a.clone()),
            None => Err(InterpError::new(format!(
                "fst expects a pair, got {}",
                args[0]
            ))),
        },
        Builtin::Snd => match args[0].as_pair() {
            Some((_, b)) => Ok(b.clone()),
            None => Err(InterpError::new(format!(
                "snd expects a pair, got {}",
                args[0]
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_closed, compile_query};
    use crate::parser::parse;
    use or_nra::eval::eval;

    fn interp(src: &str, env: &Env) -> Value {
        interpret(&parse(src).unwrap(), env).unwrap()
    }

    #[test]
    fn basic_expressions() {
        let env = Env::new();
        assert_eq!(interp("1 + 2 * 3", &env), Value::Int(7));
        assert_eq!(interp("{2, 1, 2}", &env), Value::int_set([1, 2]));
        assert_eq!(
            interp("normalize(<| <|1,2|>, <|3|> |>)", &env),
            Value::int_orset([1, 2, 3])
        );
        assert_eq!(
            interp("{ x | x <- {1,2,3,4}, x > 2 }", &env),
            Value::int_set([3, 4])
        );
    }

    #[test]
    fn interpreter_and_compiler_agree_on_closed_programs() {
        let programs = [
            "1 + 2 * 3 - 4",
            "{ x + y | x <- {1,2}, y <- {10, 20}, x + y != 21 }",
            "<| (x, member(x, {1,3})) | x <- <|1,2,3|> |>",
            "let s = {1,2,3} in difference(s, {2})",
            "if subset({1}, {1,2}) then intersect({1,2},{2,3}) else {}",
            "alpha({<|1,2|>, <|3,4|>})",
            "normalize({<|1,2|>, <|3|>})",
            "union(powerset({1,2}), {{9}})",
            "toset(<|5,6|>)",
            "orisempty(<| |>)",
            "(fst((1,2)), snd((1,2)))",
            "!(1 == 2) && 3 >= 3",
        ];
        let env = Env::new();
        for src in programs {
            let expr = parse(src).unwrap();
            let direct = interpret(&expr, &env).unwrap();
            let compiled = compile_closed(&expr).unwrap();
            let via_algebra = eval(&compiled, &Value::Unit).unwrap();
            assert_eq!(direct, via_algebra, "disagreement on {src}");
        }
    }

    #[test]
    fn interpreter_and_compiler_agree_on_parameterized_queries() {
        let db = Value::set([
            Value::pair(Value::str("Joe"), Value::int_orset([515])),
            Value::pair(Value::str("Mary"), Value::int_orset([515, 212])),
        ]);
        let queries = [
            "{ fst(r) | r <- db, ormember(212, snd(r)) }",
            "{ (fst(r), o) | r <- db, o <- toset(snd(r)) }",
            "normalize(db)",
        ];
        for src in queries {
            let expr = parse(src).unwrap();
            let mut env = Env::new();
            env.insert("db".to_string(), db.clone());
            let direct = interpret(&expr, &env).unwrap();
            let compiled = compile_query(&expr, "db").unwrap();
            let via_algebra = eval(&compiled, &db).unwrap();
            assert_eq!(direct, via_algebra, "disagreement on {src}");
        }
    }

    /// `let a0 = fst(r) in let a1 = a0 + a0 in … in a{depth} + x`, built as
    /// a syntax tree (the debug parser's nesting limit is 16): every link
    /// reads its variable twice, so inlining it would double at each one.
    fn doubling_let_chain(depth: usize) -> Expr {
        let name = |k: usize| format!("a{k}");
        let mut expr = Expr::BinOp(
            BinOp::Add,
            Box::new(Expr::Var(name(depth))),
            Box::new(Expr::Var("x".to_string())),
        );
        for k in (1..=depth).rev() {
            let prev = Box::new(Expr::Var(name(k - 1)));
            expr = Expr::Let {
                name: name(k),
                value: Box::new(Expr::BinOp(BinOp::Add, prev.clone(), prev)),
                body: Box::new(expr),
            };
        }
        Expr::Let {
            name: name(0),
            value: Box::new(parse("fst(r)").unwrap()),
            body: Box::new(expr),
        }
    }

    /// Row compilation: a guard or head compiled against the tuple of its
    /// generator variables' values gives, on generated rows, what the
    /// interpreter gives with the variables bound, and never pairs the
    /// tuple with `unit` (`⟨!, id⟩`).
    #[test]
    fn row_compiled_expressions_agree_with_the_interpreter() {
        use or_nra::morphism::Morphism as M;
        use or_object::generate::Generator;
        use or_object::Type;
        let vars = ["r", "x", "s"].map(String::from);
        let types = [
            Type::prod(Type::Int, Type::prod(Type::Int, Type::orset(Type::Int))),
            Type::Int,
            Type::set(Type::Int),
        ];
        let sources = [
            // the element, the row, both
            "x >= 60",
            "x",
            "fst(r) < 3",
            "ormember(3, snd(snd(r)))",
            "snd(snd(r))",
            "fst(r) < x",
            "(fst(snd(r)), x)",
            "member(x, s) && fst(r) != x",
            // reads nothing of the row
            "1 < 2",
            // `let`, `if`
            "let a = fst(r) in a + a",
            "let a = x in fst(r) + a",
            "if fst(r) < x then snd(snd(r)) else <|x|>",
            // arithmetic at the `i64` bounds wraps
            "x * 4611686018427387904",
            "9223372036854775807 + fst(r)",
            "0 - 9223372036854775807 - x * 2",
            // binders that rebind a generator variable
            "let x = fst(r) in x + x",
            "{ x + 1 | x <- s }",
            "{ (x, y) | y <- s, x <- s, x < y }",
            "{ fst(r) + y | y <- s, r <- {(y, (x, <|y|>))} }",
            "(x, { x * 2 | x <- s })",
        ];
        let mut exprs: Vec<Expr> = sources.iter().map(|src| parse(src).unwrap()).collect();
        exprs.push(doubling_let_chain(20));
        let mut gen = Generator::with_seed(21);
        for expr in &exprs {
            let compiled = crate::compile::compile_with_env(expr, &vars).unwrap();
            let adapter = M::pair(M::Bang, M::Id);
            assert!(
                !compiled.any_node(&mut |m| *m == adapter),
                "{expr}: {compiled}"
            );
            assert!(compiled.size() < 40 * expr.size(), "{expr}: {compiled}");
            for _ in 0..30 {
                let values: Vec<Value> = types.iter().map(|t| gen.object_of(t)).collect();
                let env: Env = vars.iter().cloned().zip(values.iter().cloned()).collect();
                let row = values
                    .into_iter()
                    .reduce(Value::pair)
                    .expect("three variables");
                assert_eq!(
                    eval(&compiled, &row).unwrap(),
                    interpret(expr, &env).unwrap(),
                    "{expr} on {row}"
                );
            }
        }
        // a read of one variable is factored through its projection path
        // (`x` is `π₂ ∘ π₁` of `((r, x), s)`), and the or-set read stays
        // `or_member ∘ ⟨K3 ∘ !, id⟩` after its path
        let compiled = |src: &str| crate::compile::compile_with_env(&parse(src).unwrap(), &vars);
        let x_guard = compiled("x >= 60").unwrap();
        assert_eq!(x_guard.stages()[..2], [&M::Proj1, &M::Proj2]);
        let member = compiled("ormember(3, snd(snd(r)))").unwrap();
        let path = M::Proj1.then(M::Proj1).then(M::Proj2).then(M::Proj2);
        let body = M::pair(M::constant(Value::Int(3)), M::Id).then(or_nra::derived::or_member());
        assert_eq!(member, path.then(body));
    }

    #[test]
    fn later_generators_shadow_and_restore_outer_bindings() {
        // `b <- g` reads the *environment* binding of `g` on every outer
        // iteration, even though a later generator rebinds `g` in between —
        // the in-place rebinding must restore the outer value when its loop
        // completes.
        let mut env = Env::new();
        env.insert("g".to_string(), Value::int_set([7]));
        assert_eq!(
            interp("{ (a, b) | a <- {1, 2}, b <- g, g <- {{9}} }", &env),
            Value::set([
                Value::pair(Value::Int(1), Value::Int(7)),
                Value::pair(Value::Int(2), Value::Int(7)),
            ])
        );
        // plain self-shadowing: the inner `x` wins for the head
        assert_eq!(
            interp("{ x | xs <- {{1, 2}, {3}}, x <- xs }", &env),
            Value::int_set([1, 2, 3])
        );
    }

    #[test]
    fn zero_time_budget_rejects_at_admission() {
        let env = Env::new();
        let limits = InterpLimits::new(None, Some(Duration::ZERO));
        let err = interpret_limited(&parse("1 + 1").unwrap(), &env, &limits).unwrap_err();
        assert!(
            err.message.contains("time budget exceeded"),
            "unexpected: {err}"
        );
        // the same statement is fine without a budget
        assert!(
            interpret_limited(&parse("1 + 1").unwrap(), &env, &InterpLimits::unbounded()).is_ok()
        );
    }

    #[test]
    fn denotation_budget_gates_normalize_and_alpha() {
        // 2^10 = 1024 complete denotations; a budget of 1000 must reject
        // it *before* materialization, on both exponential builtins.
        let mut env = Env::new();
        env.insert(
            "db".to_string(),
            Value::set((0..10).map(|i| Value::int_orset([i, i + 100]))),
        );
        let limits = InterpLimits::new(Some(1_000), None);
        for src in ["normalize(db)", "alpha(db)"] {
            let err = interpret_limited(&parse(src).unwrap(), &env, &limits).unwrap_err();
            assert!(
                err.message.contains("or-expansion budget exceeded")
                    && err.message.contains("1024"),
                "unexpected for {src}: {err}"
            );
        }
        // a budget of exactly 1024 admits it
        let limits = InterpLimits::new(Some(1_024), None);
        for src in ["normalize(db)", "alpha(db)"] {
            assert!(interpret_limited(&parse(src).unwrap(), &env, &limits).is_ok());
        }
    }

    #[test]
    fn denotation_budget_counts_past_u128_without_overflow() {
        // <| {<|0,1|>, …, <|258,259|>}, 1 |> has more than 2^128
        // denotations: the count saturates and the budget rejects it.
        let wide = Value::set((0..130).map(|i| Value::int_orset([2 * i, 2 * i + 1])));
        let mut env = Env::new();
        env.insert("db".to_string(), Value::orset([wide, Value::Int(1)]));
        let limits = InterpLimits::new(Some(u64::MAX), None);
        let err = interpret_limited(&parse("normalize(db)").unwrap(), &env, &limits).unwrap_err();
        assert!(
            err.message.contains(&u128::MAX.to_string()),
            "unexpected: {err}"
        );
    }

    #[test]
    fn runtime_errors_are_reported() {
        let env = Env::new();
        assert!(interpret(&parse("x").unwrap(), &env).is_err());
        assert!(interpret(&parse("1 + true").unwrap(), &env).is_err());
        assert!(interpret(&parse("flatten({1,2})").unwrap(), &env).is_err());
        assert!(interpret(&parse("if 3 then 1 else 2").unwrap(), &env).is_err());
    }
}
