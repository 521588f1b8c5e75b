//! Direct compilation of OrQL set queries over **relation bindings** into
//! multi-input physical plans — the one route by which a session plans a
//! statement for the engine.
//!
//! The planner produces a [`PhysicalPlan`] in which `Scan(i)` reads the
//! `i`-th referenced binding:
//!
//! * `{ head | x <- db1, y <- db2, …, guards… }` — one scan per generator
//!   (cartesian-chained), guards become filters over the accumulated row
//!   tuple, the head becomes the final projection.  A guard sitting directly
//!   on a cartesian product is fused into a [`PhysicalPlan::Join`], where
//!   equality predicates additionally take the engine's hash fast path.
//!   A **dependent** generator (`{ x | xs <- db, x <- xs }`) projects each
//!   row to its set of `(k(row), element)` pairs (`ρ₂`) and streams them
//!   with [`PhysicalPlan::Flatten`], carrying only the variables later
//!   qualifiers read: `k` is `id` when all are read, the tuple of the read
//!   ones when some are, and when none is the row is the element alone
//!   (`Flatten(Project[src])`, no pairing).  A name rebound by a later
//!   generator is dead from there on.  The environment translation of the
//!   whole comprehension (`compile_query`) would instead pair every row
//!   with the entire input relation (quadratic);
//! * per-row α-expansion `w <- toset(normalize(r))`, where `r` is the only
//!   generator variable so far (also after a dependent generator that
//!   carried nothing else) and nothing after the generator reads it —
//!   [`PhysicalPlan::OrExpand`]: each row is replaced by its complete
//!   worlds, which the engine expands lazily under the denotation budget,
//!   and the session's expand planner
//!   ([`optimize_expansion`](or_nra::optimize::optimize_expansion)) moves
//!   or-free guards written after the generator below the expansion.  When
//!   `r` is still read, the generator is an ordinary dependent one
//!   (`Flatten`), and so it is when the session finds that a guard before
//!   the generator cannot run below the expansion;
//! * a **nested generator** `y <- { … }`: a generator that reads no earlier
//!   generator variable ranges over any relation pipeline (a comprehension,
//!   `union`, `flatten`, a binding), which is planned on its own and chained
//!   on like a scan — no substitution, no unnesting;
//! * `let x = c in body` with a **literal** `c` (an integer, boolean,
//!   string or `()`) — `c` is substituted into `body`, stopping at binders
//!   that rebind `x`, and `body` is planned.  The session's plan-cache key
//!   contains `c`.  Every other `let` falls back to the interpreter, which
//!   evaluates its value once: substituting a computed value would
//!   evaluate it once per row that reads it, and a chain of such `let`s
//!   would grow the body exponentially;
//! * `union(a, b)` — [`PhysicalPlan::Union`] of the two planned arms;
//! * `flatten(e)` — [`PhysicalPlan::Flatten`];
//! * a bare binding reference `db` — the scan itself.
//!
//! Row-level expressions (guards, heads, dependent sources) are compiled
//! ([`compile_with_env`]) directly against the engine's left-nested row
//! tuple `((r₀, r₁), r₂)` of the generator values, where each generator
//! variable is its own projection path.  They come out factored as `e' ∘ π`
//! through the projection every read of the row shares, which is the form
//! the expand planner's Theorem 5.1 check, the columnar kernels and the
//! hash-join detector (`eq ∘ ⟨f ∘ π₁, g ∘ π₂⟩`) read.
//!
//! Everything outside these shapes returns a [`PlanError`] whose reason the
//! session records as the statement's fallback reason.

use std::fmt;

use or_nra::morphism::Morphism as M;
use or_nra::optimize::simplified;
use or_nra::physical::PhysicalPlan;

use crate::ast::{Builtin, Expr, Qualifier};
use crate::compile::compile_with_env;

/// A physical plan over named session bindings: `Scan(i)` reads the relation
/// bound to `inputs[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedQuery {
    /// The multi-input plan.
    pub plan: PhysicalPlan,
    /// Binding names, one per input slot, in first-reference order.
    pub inputs: Vec<String>,
}

/// Why an expression could not be planned directly.  The session surfaces
/// the reason in its fallback statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// Human-readable description of the unsupported shape.
    pub reason: String,
    /// Whether the expression *looked like* a relational query (a
    /// comprehension, `union`, `flatten`) that the planner nevertheless
    /// could not handle.  Sessions retain only noteworthy reasons in their
    /// bounded fallback diagnostics — a `let` of a literal or a scalar
    /// expression is an expected interpreter statement, and recording it
    /// would evict the reasons the diagnostics exist to surface.
    pub noteworthy: bool,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for PlanError {}

fn err<T>(reason: impl Into<String>) -> Result<T, PlanError> {
    Err(PlanError {
        reason: reason.into(),
        noteworthy: true,
    })
}

/// Plan a set-valued query over relation bindings.  See the module docs for
/// the accepted shapes.
pub fn plan_query(expr: &Expr) -> Result<PlannedQuery, PlanError> {
    plan_query_with(expr, true)
}

/// [`plan_query`], with `or_expand = false` keeping every α-expansion
/// generator on the ordinary dependent-generator `Flatten` lowering.  The
/// session re-plans that way when a guard before the expansion cannot run
/// below `OrExpand`.
pub(crate) fn plan_query_with(expr: &Expr, or_expand: bool) -> Result<PlannedQuery, PlanError> {
    let mut inputs = Vec::new();
    let plan = plan_expr(expr, &mut inputs, or_expand)?;
    Ok(PlannedQuery {
        plan: fuse_joins(plan),
        inputs,
    })
}

/// The input slot for binding `name`, allocating one on first reference.
fn slot_of(inputs: &mut Vec<String>, name: &str) -> usize {
    match inputs.iter().position(|s| s == name) {
        Some(i) => i,
        None => {
            inputs.push(name.to_string());
            inputs.len() - 1
        }
    }
}

fn plan_expr(
    expr: &Expr,
    inputs: &mut Vec<String>,
    or_expand: bool,
) -> Result<PhysicalPlan, PlanError> {
    match expr {
        Expr::Var(name) => Ok(PhysicalPlan::scan(slot_of(inputs, name))),
        Expr::Call(Builtin::Union, args) if args.len() == 2 => {
            let left = plan_expr(&args[0], inputs, or_expand)?;
            let right = plan_expr(&args[1], inputs, or_expand)?;
            Ok(left.union_with(right))
        }
        Expr::Call(Builtin::Flatten, args) if args.len() == 1 => {
            Ok(plan_expr(&args[0], inputs, or_expand)?.flatten())
        }
        Expr::SetComp { head, qualifiers } => {
            plan_comprehension(head, qualifiers, inputs, or_expand)
        }
        // a literal `let` value is substituted: the body keeps its size, and
        // the value costs nothing to evaluate once per row that reads it
        Expr::Let { name, value, body } => {
            if !matches!(
                **value,
                Expr::Unit | Expr::Int(_) | Expr::Bool(_) | Expr::Str(_)
            ) {
                return err(
                    "let-bound value is not a literal, so the interpreter evaluates it once",
                );
            }
            let mut body = (**body).clone();
            body.subst(name, value);
            plan_expr(&body, inputs, or_expand)
        }
        Expr::OrSetComp { .. } => err("or-set comprehension (the engine computes set queries)"),
        other => Err(PlanError {
            reason: "expression is not a relation pipeline".to_string(),
            // an expression over bindings (`normalize(db)`, `member(1, db)`)
            // and set algebra are genuine engine gaps worth surfacing;
            // literals and scalar expressions over them are ordinary
            // interpreter statements, not missed opportunities
            noteworthy: !other.free_vars().is_empty()
                || matches!(
                    other,
                    Expr::Call(Builtin::Intersect | Builtin::Difference, _)
                ),
        }),
    }
}

fn plan_comprehension(
    head: &Expr,
    qualifiers: &[Qualifier],
    inputs: &mut Vec<String>,
    or_expand: bool,
) -> Result<PhysicalPlan, PlanError> {
    let mut vars: Vec<String> = Vec::new();
    let mut plan: Option<PhysicalPlan> = None;
    for (i, q) in qualifiers.iter().enumerate() {
        match q {
            Qualifier::Generator(name, source) => {
                // per-row α-expansion of the only row variable, which nothing
                // after this generator reads: the row is replaced by each of
                // its worlds, so the interned lazy `OrExpand` streams them
                // (and the expand planner can place filters below it)
                let rest = &qualifiers[i + 1..];
                if or_expand
                    && expands_only_row(name, source, &vars)
                    && !read_later(&vars[0], name, rest, head)
                {
                    plan = plan.map(PhysicalPlan::or_expand);
                    vars = vec![name.clone()];
                    continue;
                }
                // an independent generator ranges over a relation pipeline
                // that reads no generator variable: plan it on its own and
                // chain it onto the row built so far
                let pipeline = if source.free_vars().iter().any(|f| vars.contains(f)) {
                    err("the source reads a generator variable")
                } else {
                    plan_expr(source, inputs, or_expand)
                };
                plan = Some(match (plan, pipeline) {
                    (None, Ok(pipeline)) => pipeline,
                    (Some(p), Ok(pipeline)) => p.cartesian(pipeline),
                    (None, Err(e)) => {
                        return err(format!(
                            "first generator must range over a relation pipeline ({e})"
                        ))
                    }
                    // dependent generator (or a constant source): each row
                    // projects to the set of `(k(row), element)` pairs
                    // (`ρ₂`), where `k` keeps only the variables a later
                    // qualifier or the head reads, and `Flatten` streams
                    // them; when none is read, the row is the element alone
                    (Some(p), Err(_)) => {
                        let src = row_morphism(source, &vars)?;
                        let live: Vec<String> = vars
                            .iter()
                            .enumerate()
                            .filter(|&(j, v)| {
                                !vars[j + 1..].contains(v) && read_later(v, name, rest, head)
                            })
                            .map(|(_, v)| v.clone())
                            .collect();
                        let tuple = live
                            .iter()
                            .map(|v| Expr::Var(v.clone()))
                            .reduce(|a, b| Expr::Pair(Box::new(a), Box::new(b)));
                        let pairs = match tuple {
                            None => src,
                            Some(_) if live.len() == vars.len() => {
                                M::pair(M::Id, src).then(M::Rho2)
                            }
                            Some(k) => M::pair(row_morphism(&k, &vars)?, src).then(M::Rho2),
                        };
                        vars = live;
                        p.project(pairs).flatten()
                    }
                });
                vars.push(name.clone());
            }
            Qualifier::Guard(guard) => {
                let Some(p) = plan else {
                    return err("guard before the first generator");
                };
                plan = Some(p.filter(row_morphism(guard, &vars)?));
            }
        }
    }
    let Some(plan) = plan else {
        return err("comprehension has no generator");
    };
    let head_m = row_morphism(head, &vars)?;
    Ok(plan.project(head_m))
}

/// Is `name <- source` the generator `w <- toset(normalize(v))` over the
/// only generator variable `v` so far (with `w != v`)?
fn expands_only_row(name: &str, source: &Expr, vars: &[String]) -> bool {
    let [v] = vars else {
        return false;
    };
    let Expr::Call(Builtin::ToSet, outer) = source else {
        return false;
    };
    matches!(
        outer.as_slice(),
        [Expr::Call(Builtin::Normalize, inner)]
            if matches!(inner.as_slice(), [Expr::Var(x)] if x == v && x != name)
    )
}

/// Is the binding of `var` live after the generator `name <- …`: does a
/// qualifier in `rest` or the head read it before a generator rebinds
/// `var` (`name` itself included)?
fn read_later(var: &str, name: &str, rest: &[Qualifier], head: &Expr) -> bool {
    let mentions = |e: &Expr| e.free_vars().iter().any(|f| f == var);
    if var == name {
        return false;
    }
    for q in rest {
        let (bound, e) = match q {
            Qualifier::Generator(bound, e) => (Some(bound), e),
            Qualifier::Guard(e) => (None, e),
        };
        if mentions(e) {
            return true;
        }
        if bound.is_some_and(|b| b == var) {
            return false;
        }
    }
    mentions(head)
}

/// Compile `expr` (free variables ⊆ the generator variables `vars`) into a
/// morphism over the engine's left-nested row tuple, factored through the
/// projection every read of the row shares ([`compile_with_env`]), and
/// simplified.
fn row_morphism(expr: &Expr, vars: &[String]) -> Result<M, PlanError> {
    let m = compile_with_env(expr, vars).map_err(|e| PlanError {
        reason: format!("row expression is not compilable over the generators: {e}"),
        noteworthy: true,
    })?;
    Ok(simplified(&m))
}

/// Fuse every filter sitting directly on a cartesian product into a join —
/// the join operator evaluates the same predicate over the same pairs, and
/// equality predicates then take the engine's hash path instead of
/// enumerating the product.
fn fuse_joins(plan: PhysicalPlan) -> PhysicalPlan {
    match plan.map_inputs(fuse_joins) {
        PhysicalPlan::Filter { predicate, input } => match *input {
            PhysicalPlan::Cartesian { left, right } => PhysicalPlan::Join {
                predicate,
                left,
                right,
            },
            other => other.filter(predicate),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;
    use crate::parser::parse;

    fn planned(src: &str) -> PlannedQuery {
        plan_query(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn single_generator_comprehensions_plan_to_scan_pipelines() {
        let pq = planned("{ fst(p) | p <- db, snd(p) <= 20 }");
        assert_eq!(pq.inputs, vec!["db".to_string()]);
        let rendered = pq.plan.to_string();
        assert!(rendered.contains("Project"), "plan: {rendered}");
        assert!(rendered.contains("Filter"), "plan: {rendered}");
        assert!(rendered.contains("Scan(#0)"), "plan: {rendered}");
    }

    #[test]
    fn multi_binding_comprehensions_plan_to_multi_input_joins() {
        let pq = planned("{ (fst(u), snd(g)) | u <- users, g <- groups, snd(u) == fst(g) }");
        assert_eq!(pq.inputs, vec!["users".to_string(), "groups".to_string()]);
        assert_eq!(pq.plan.input_arity(), 2);
        let rendered = pq.plan.to_string();
        // the equality guard fuses the cartesian product into a join
        assert!(rendered.contains("Join"), "plan: {rendered}");
        assert!(!rendered.contains("Cartesian"), "plan: {rendered}");
        // its sides share no projection, so it keeps the equi-join shape
        let PhysicalPlan::Project { input, .. } = &pq.plan else {
            panic!("plan: {rendered}");
        };
        let PhysicalPlan::Join { predicate, .. } = &**input else {
            panic!("plan: {rendered}");
        };
        let side = |first: M, then: M| Box::new(first.then(then));
        assert_eq!(
            *predicate,
            M::Compose(
                Box::new(M::Eq),
                Box::new(M::PairWith(
                    side(M::Proj1, M::Proj2),
                    side(M::Proj2, M::Proj1)
                ))
            )
        );
        // and the plan passes the typed verifier without a finding
        use or_nra::verify::{verify_plan, VerifyConfig};
        use or_object::Type;
        let pair = Some(Type::prod(Type::Int, Type::Int));
        let config = VerifyConfig {
            provided_inputs: Some(2),
            row_types: vec![pair.clone(), pair],
            ..VerifyConfig::default()
        };
        let violations = verify_plan(&pq.plan, &config);
        assert!(violations.is_empty(), "{violations:?}\n{rendered}");
    }

    #[test]
    fn repeated_bindings_share_a_slot() {
        let pq = planned("{ (x, y) | x <- db, y <- db }");
        assert_eq!(pq.inputs, vec!["db".to_string()]);
        assert!(pq.plan.to_string().contains("Cartesian"));
    }

    #[test]
    fn union_and_flatten_of_bindings_plan_directly() {
        let pq = planned("union({ fst(p) | p <- a }, { fst(q) | q <- b })");
        assert_eq!(pq.inputs, vec!["a".to_string(), "b".to_string()]);
        assert!(pq.plan.to_string().contains("Union"));
        let pq = planned("flatten(nested)");
        assert!(pq.plan.to_string().contains("Flatten"));
    }

    #[test]
    fn dependent_generators_plan_to_flatten_pipelines() {
        let pq = planned("{ x | xs <- db, x <- xs }");
        assert_eq!(pq.inputs, vec!["db".to_string()]);
        let rendered = pq.plan.to_string();
        assert!(rendered.contains("Flatten"), "plan: {rendered}");
        assert!(rendered.contains("Scan(#0)"), "plan: {rendered}");
        // a dependent generator mid-chain, with a guard afterwards
        let pq = planned("{ (fst(r), x) | r <- db, x <- snd(r), x != fst(r) }");
        assert_eq!(pq.inputs, vec!["db".to_string()]);
        assert!(pq.plan.to_string().contains("Flatten"));
    }

    /// The projection below the first `Flatten` down the driving chain
    /// (the last dependent generator's).
    fn flatten_projection(plan: &PhysicalPlan) -> &M {
        match plan {
            PhysicalPlan::Flatten { input } => match &**input {
                PhysicalPlan::Project { f, .. } => f,
                other => panic!("{other}"),
            },
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::OrExpand { input, .. } => flatten_projection(input),
            other => panic!("no Flatten: {other}"),
        }
    }

    /// A dependent generator pairs each element with the variables a later
    /// qualifier or the head reads, and only those: the whole row when all
    /// are (`⟨id, src⟩ ; ρ₂`), a projection of it when some are,
    /// nothing when none is.
    #[test]
    fn dependent_generators_carry_only_live_variables() {
        let rho = |k: M, src: M| M::pair(k, src).then(M::Rho2);
        let projection = |src: &str| flatten_projection(&planned(src).plan).clone();
        // all live
        assert_eq!(
            projection("{ (fst(r), x) | r <- db, x <- snd(r) }"),
            rho(M::Id, M::Proj2)
        );
        assert_eq!(
            projection("{ x | r <- db, x <- snd(r), x < fst(r) }"),
            rho(M::Id, M::Proj2)
        );
        // none live: the element alone, also when the name is rebound
        assert_eq!(projection("{ x | xs <- db, x <- xs, x > 1 }"), M::Id);
        assert_eq!(projection("{ x | x <- db, x <- x }"), M::Id);
        assert_eq!(projection("{ y | r <- db, x <- snd(r), y <- {x} }"), M::Eta);
        // some live: `r` is carried past the dead `x`, and a guard keeps
        // `r` live up to the guard only
        assert_eq!(
            projection("{ (fst(r), y) | r <- db, x <- snd(r), y <- {x} }"),
            rho(M::Proj1, M::Proj2.then(M::Eta))
        );
        assert_eq!(
            projection("{ (x, y) | r <- db, x <- snd(r), fst(r) < 3, y <- {x} }"),
            rho(M::Proj2, M::Proj2.then(M::Eta))
        );
        assert_eq!(
            projection("{ y | r <- db, x <- snd(r), x > fst(r), y <- {x} }"),
            M::Proj2.then(M::Eta)
        );
    }

    #[test]
    fn expansion_generators_plan_to_or_expand() {
        use or_nra::verify::{verify_plan, VerifyConfig};
        use or_object::Type;
        let expands = |src: &str| planned(src).plan.contains_or_expand();
        assert!(expands("{ w | r <- db, w <- toset(normalize(r)) }"));
        assert!(expands(
            "{ snd(w) | r <- db, fst(r) < 3, w <- toset(normalize(r)), fst(w) > 1 }"
        ));
        // the row is still read, rebound, or not the only generator
        assert!(!expands(
            "{ (fst(r), w) | r <- db, w <- toset(normalize(r)) }"
        ));
        assert!(!expands(
            "{ w | r <- db, w <- toset(normalize(r)), fst(r) < 3 }"
        ));
        assert!(!expands("{ r | r <- db, r <- toset(normalize(r)) }"));
        assert!(!expands(
            "{ w | q <- db, r <- db, w <- toset(normalize(r)) }"
        ));
        // guards before the expansion are factored, so the plan as planned
        // passes the Theorem 5.1 check of what runs below `OrExpand` (V08)
        let pq = planned("{ w | r <- db, fst(r) >= 1, fst(r) < 3, w <- toset(normalize(r)) }");
        let row = Type::prod(
            Type::Int,
            Type::prod(Type::orset(Type::Int), Type::orset(Type::Int)),
        );
        let config = VerifyConfig {
            provided_inputs: Some(1),
            row_types: vec![Some(row)],
            ..VerifyConfig::default()
        };
        let violations = verify_plan(&pq.plan, &config);
        assert!(violations.is_empty(), "{violations:?}\n{}", pq.plan);
    }

    #[test]
    fn literal_lets_are_substituted_and_other_lets_fall_back() {
        let pq = planned("let k = 3 in { fst(r) | r <- db, ormember(k, fst(snd(r))) }");
        assert_eq!(
            pq,
            planned("{ fst(r) | r <- db, ormember(3, fst(snd(r))) }")
        );
        // a generator that rebinds `k` stops the substitution
        assert_eq!(
            planned("let k = 3 in { k | k <- db }"),
            planned("{ k | k <- db }")
        );
        for src in [
            "let s = db in { x | x <- s }",
            "let s = {1, 2} in { x | x <- db, member(x, s) }",
            "let k = 1 + 2 in { x | x <- db, x < k }",
            "let s = normalize(<|1, 2|>) in 1",
        ] {
            let e = plan_query(&parse(src).unwrap()).unwrap_err();
            assert!(
                e.reason.contains("not a literal") && e.noteworthy,
                "{src}: {e}"
            );
        }
    }

    /// `let a0 = 1 in let a1 = a0 + a0 in … let a40 = a39 + a39 in body`:
    /// substituting every value would make `a40` a tree of 2^40 nodes.
    /// Built as a syntax tree, so the parser's depth limit does not cut it
    /// short in debug builds.
    #[test]
    fn doubling_let_chains_fall_back_in_linear_time() {
        let name = |k: usize| format!("a{k}");
        let mut expr = parse("{ x | x <- db }").unwrap();
        for k in (1..=40).rev() {
            let prev = Box::new(Expr::Var(name(k - 1)));
            expr = Expr::Let {
                name: name(k),
                value: Box::new(Expr::BinOp(BinOp::Add, prev.clone(), prev)),
                body: Box::new(expr),
            };
        }
        let expr = Expr::Let {
            name: name(0),
            value: Box::new(Expr::Int(1)),
            body: Box::new(expr),
        };
        let e = plan_query(&expr).unwrap_err();
        assert!(e.reason.contains("not a literal"), "{e}");
    }

    #[test]
    fn generators_over_pipelines_plan_directly() {
        let pq = planned("{ y | y <- { fst(r) | r <- db, snd(r) < 3 } }");
        assert_eq!(pq.inputs, vec!["db".to_string()]);
        let pq = planned("{ (x, y) | x <- a, y <- union({ z | z <- b }, { z | z <- c }) }");
        assert_eq!(
            pq.inputs,
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
        );
        assert!(pq.plan.to_string().contains("Union"), "{}", pq.plan);
    }

    #[test]
    fn unsupported_shapes_report_reasons() {
        // a leading dependent generator has no relation to scan
        let e = plan_query(&parse("{ x | xs <- {{1}}, x <- xs }").unwrap()).unwrap_err();
        assert!(e.reason.contains("first generator"), "{e}");
        // or-set comprehension
        let e = plan_query(&parse("<| x | x <- db |>").unwrap()).unwrap_err();
        assert!(e.reason.contains("or-set"), "{e}");
        // guard reading a binding that is not streamed through the row
        let e = plan_query(&parse("{ x | x <- db, member(x, other) }").unwrap()).unwrap_err();
        assert!(e.reason.contains("not compilable"), "{e}");
    }
}
