//! Losslessness of normalization (Section 5): the `preserve(f)` construction.
//!
//! Normalization erases structural distinctions between conceptually
//! equivalent objects, so one may worry that it loses information needed by
//! later queries.  Theorem 5.1 shows that for a large syntactic class of
//! morphisms `f : s → t` there is a morphism
//! `preserve(f) : nf(<s>) → nf(<t>)` with
//!
//! ```text
//! preserve(f) ∘ normalize ∘ orη  =  normalize ∘ orη ∘ f
//! ```
//!
//! on inputs free of empty or-sets — i.e. one can normalize *first* and still
//! compute the conceptual result of `f`.  Proposition 5.2 relaxes the
//! preconditions and obtains a *conceptual analog*: the left-hand side is
//! then only *included* in the right-hand side (Figure 2).
//!
//! This module implements the structural-induction construction of
//! `preserve(f)`, the syntactic precondition checker of Theorem 5.1, and
//! executable checks of both the equational (lossless) and the inclusion
//! (conceptual analog) properties.

use or_object::{Type, Value};

use crate::derived::or_rho1;
use crate::error::{EvalError, TypeError};
use crate::eval::eval;
use crate::infer::output_type;
use crate::morphism::Morphism as M;

/// The "or-cartesian-pair" used in the pair-formation case of Theorem 5.1:
/// `orcp = or_mu ∘ ormap(or_rho1) ∘ or_rho2 : <s> × <t> → <s × t>`.
fn orcp() -> M {
    M::OrRho2.then(M::ormap(or_rho1())).then(M::OrMu)
}

/// Build `preserve(f)` by structural induction on `f`, following the proof of
/// Theorem 5.1 (and the `K<>` case of Proposition 5.2).
///
/// The construction is purely syntactic; whether the result actually makes
/// normalization lossless depends on the preconditions, which
/// [`lossless_preconditions`] checks separately.
pub fn preserve(f: &M) -> M {
    match f {
        M::Id => M::Id,
        // "Case f is η, π1, π2, μ, K{}, Kc, !, ∪, ρ2, or p" — map over the
        // possibilities
        M::Eta
        | M::Proj1
        | M::Proj2
        | M::Mu
        | M::KEmptySet
        | M::Const(_)
        | M::Bang
        | M::Union
        | M::Rho2
        | M::Eq
        | M::Prim(_)
        | M::Cond(..)
        | M::Powerset => M::ormap(f.clone()),
        // pair formation
        M::PairWith(g, h) => M::pair(preserve(g), preserve(h)).then(orcp()),
        // composition
        M::Compose(g, h) => M::compose(preserve(g), preserve(h)),
        // map
        M::Map(g) => M::ormap(M::map(M::OrEta.then(preserve(g))))
            .then(M::ormap(M::Alpha))
            .then(M::OrMu),
        // operators that normalization absorbs
        M::Alpha | M::OrEta | M::OrRho2 | M::OrMu => M::Id,
        // or-union
        M::OrUnion => {
            M::ormap(M::pair(M::Proj1.then(M::OrEta), M::Proj2.then(M::OrEta)).then(M::OrUnion))
                .then(M::OrMu)
        }
        // ormap
        M::OrMap(g) => preserve(g),
        // K<> (Proposition 5.2's extra case): everything becomes inconsistent
        M::KEmptyOrSet => M::ormap(M::KEmptyOrSet.after_bang()).then(M::OrMu),
        // conversions and normalize are outside the theorem; map over them so
        // that the function is total, but the precondition checker flags them
        M::OrToSet | M::SetToOr | M::Normalize => M::ormap(f.clone()),
    }
}

/// A violation of the preconditions of Theorem 5.1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreconditionViolation {
    /// The offending sub-morphism.
    pub morphism: String,
    /// Why it violates the preconditions.
    pub reason: String,
}

/// Check the syntactic preconditions of Theorem 5.1 for `f` applied at the
/// concrete input type `input`:
///
/// * no `K<>`;
/// * no primitive (including `eq` and `cond`) whose type mentions or-sets;
/// * no `ρ₂`, `μ`, or `∪` at element types with or-sets;
/// * no `map(g) : {u} → {v}` with or-sets in `u` or `v`;
/// * no pair formation `⟨g, h⟩ : r → u × v` with or-sets in `r`, `u`, or `v`.
///
/// Returns the list of violations (empty when normalization is lossless with
/// respect to `f` by Theorem 5.1) together with the output type.
pub fn lossless_preconditions(
    f: &M,
    input: &Type,
) -> Result<(Type, Vec<PreconditionViolation>), TypeError> {
    let mut violations = Vec::new();
    let out = walk(f, input, &mut violations)?;
    Ok((out, violations))
}

fn violation(list: &mut Vec<PreconditionViolation>, m: &M, reason: impl Into<String>) {
    list.push(PreconditionViolation {
        morphism: m.to_string(),
        reason: reason.into(),
    });
}

fn walk(
    f: &M,
    input: &Type,
    violations: &mut Vec<PreconditionViolation>,
) -> Result<Type, TypeError> {
    let out = output_type(f, input)?;
    match f {
        M::KEmptyOrSet => violation(violations, f, "K<> is excluded by Theorem 5.1"),
        M::OrToSet | M::SetToOr | M::Powerset | M::Normalize => violation(
            violations,
            f,
            "operator outside the or-NRA fragment covered by Theorem 5.1",
        ),
        M::Eq | M::Prim(_) if (input.contains_orset() || out.contains_orset()) => {
            violation(
                violations,
                f,
                "primitive whose type mentions or-sets (structural equality at or-set \
                     types is not preserved by normalization)",
            );
        }
        M::Cond(p, g, h) => {
            if input.contains_orset() || out.contains_orset() {
                violation(violations, f, "cond at a type with or-sets");
            }
            walk(p, input, violations)?;
            walk(g, input, violations)?;
            walk(h, input, violations)?;
        }
        M::Rho2 | M::Mu | M::Union if input.contains_orset() => {
            violation(
                violations,
                f,
                "set operator applied at a type with or-sets (it can collapse or-sets)",
            );
        }
        M::Map(g) => {
            let elem = match input {
                Type::Set(t) => (**t).clone(),
                other => {
                    return Err(TypeError::Shape {
                        message: format!("map applied to non-set type {other}"),
                    })
                }
            };
            let elem_out = walk(g, &elem, violations)?;
            if elem.contains_orset() || elem_out.contains_orset() {
                violation(
                    violations,
                    f,
                    "map between element types with or-sets (it can collapse or-sets)",
                );
            }
        }
        M::PairWith(g, h) => {
            let a = walk(g, input, violations)?;
            let b = walk(h, input, violations)?;
            if input.contains_orset() || a.contains_orset() || b.contains_orset() {
                violation(
                    violations,
                    f,
                    "pair formation at types with or-sets (Theorem 5.1 precondition)",
                );
            }
        }
        M::Compose(g, h) => {
            let mid = walk(h, input, violations)?;
            walk(g, &mid, violations)?;
        }
        M::OrMap(g) => {
            let elem = match input {
                Type::OrSet(t) => (**t).clone(),
                other => {
                    return Err(TypeError::Shape {
                        message: format!("ormap applied to non-or-set type {other}"),
                    })
                }
            };
            walk(g, &elem, violations)?;
        }
        _ => {}
    }
    Ok(out)
}

/// Does `f` **commute with α-expansion** when applied to rows of type
/// `input`?  True exactly when the syntactic preconditions of Theorem 5.1
/// hold for `f` at `input` (and `f` typechecks there at all).
///
/// This is the test the expand planner
/// ([`crate::optimize::optimize_expansion`]) uses to push a filter or
/// projection below an `OrExpand` operator.  The connection: for `f` within
/// the preconditions, Theorem 5.1 gives
///
/// ```text
/// normalize ∘ orη ∘ f  =  preserve(f) ∘ normalize ∘ orη
/// ```
///
/// and `preserve(f)` is map-like, so the set of complete worlds of `f(row)`
/// equals `f` applied pointwise to the complete worlds of `row` — i.e. one
/// may evaluate `f` *before* expanding instead of once per expanded world.
/// A predicate that inspects or-set structure (e.g. `=` at an or-set type)
/// fails the preconditions and is reported as non-commuting, as is any `f`
/// that does not typecheck against the **unexpanded** row type.
///
/// Note the theorem's proviso: the equation is stated for inputs free of
/// empty or-sets.  For *filters* the rewrite is sound even without the
/// proviso (an inconsistent row expands to no worlds on either side); for
/// *projections* that drop components the caller must separately know the
/// rows are consistent — see the expand planner's documentation.
pub fn commutes_with_or_alpha(f: &M, input: &Type) -> bool {
    matches!(lossless_preconditions(f, input), Ok((_, v)) if v.is_empty())
}

/// How many leading steps of the projection chain `path` (application
/// order: `path[0]` applies first) drop only **or-free** components of a
/// row of type `input`.  A component whose type has no or-set has exactly
/// one world, so dropping it cannot drop an empty or-set: a projection
/// along these steps commutes with α-expansion on every input, without
/// Theorem 5.1's consistency proviso.  Counting stops at the first step
/// that is not a projection of a product, or whose dropped sibling can
/// hold an or-set.
pub fn or_free_projection_prefix(path: &[M], input: &Type) -> usize {
    let mut ty = input;
    for (i, step) in path.iter().enumerate() {
        let (kept, dropped) = match (step, ty) {
            (M::Proj1, Type::Prod(a, b)) => (a, b),
            (M::Proj2, Type::Prod(a, b)) => (b, a),
            _ => return i,
        };
        if dropped.contains_orset() {
            return i;
        }
        ty = kept;
    }
    path.len()
}

/// Is `m` a projection chain (`π₁`, `π₂` and `id` under composition) whose
/// every step drops an or-free component of a row of type `input`
/// ([`or_free_projection_prefix`])?  Below an `OrExpand` such a projection
/// needs no consistency proviso.
pub fn is_or_free_projection(m: &M, input: &Type) -> bool {
    let path: Option<Vec<M>> = m
        .stages()
        .into_iter()
        .filter(|stage| **stage != M::Id)
        .map(|stage| matches!(stage, M::Proj1 | M::Proj2).then(|| stage.clone()))
        .collect();
    path.is_some_and(|path| or_free_projection_prefix(&path, input) == path.len())
}

/// Evaluate both sides of the losslessness equation for a concrete input
/// object `x : s`:
///
/// * left: `preserve(f)(normalize(orη(x)))`
/// * right: `normalize(orη(f(x)))`
///
/// Returns `(left, right)`.
pub fn losslessness_sides(f: &M, x: &Value) -> Result<(Value, Value), EvalError> {
    let pf = preserve(f);
    let lhs_input = eval(&M::OrEta.then(M::Normalize), x)?;
    let left = eval(&pf, &lhs_input)?;
    let right = eval(
        &M::compose(M::Normalize, M::compose(M::OrEta, f.clone())),
        x,
    )?;
    Ok((left, right))
}

/// Does the losslessness equation hold for `f` on input `x` (Theorem 5.1)?
pub fn is_lossless_on(f: &M, x: &Value) -> Result<bool, EvalError> {
    let (left, right) = losslessness_sides(f, x)?;
    Ok(left == right)
}

/// Is `preserve(f)` a *conceptual analog* of `f` on input `x`
/// (Proposition 5.2 / Figure 2)?  That is, is every conceptual value produced
/// by the left-hand side also produced by the right-hand side?
pub fn is_conceptual_analog_on(f: &M, x: &Value) -> Result<bool, EvalError> {
    let (left, right) = losslessness_sides(f, x)?;
    match (&left, &right) {
        (Value::OrSet(l), Value::OrSet(r)) => Ok(l.iter().all(|v| r.contains(v))),
        _ => Ok(left == right),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derived;
    use crate::morphism::Prim;

    #[test]
    fn preserve_of_projection_is_lossless() {
        // f = π1 : <int> × {int} → <int>
        let f = M::Proj1;
        let x = Value::pair(Value::int_orset([1, 2]), Value::int_set([5, 6]));
        assert!(is_lossless_on(&f, &x).unwrap());
    }

    #[test]
    fn preserve_of_ormap_is_lossless() {
        // f = ormap(plus) : <int × int> → <int>
        let f = M::ormap(M::Prim(Prim::Plus));
        let x = Value::orset([
            Value::pair(Value::Int(1), Value::Int(2)),
            Value::pair(Value::Int(3), Value::Int(4)),
        ]);
        assert!(is_lossless_on(&f, &x).unwrap());
    }

    #[test]
    fn preserve_of_or_union_is_lossless() {
        let f = M::OrUnion;
        let x = Value::pair(Value::int_orset([1, 2]), Value::int_orset([3]));
        assert!(is_lossless_on(&f, &x).unwrap());
    }

    #[test]
    fn preserve_of_or_mu_and_alpha_are_identity_and_lossless() {
        let x = Value::orset([Value::int_orset([1, 2]), Value::int_orset([3])]);
        assert!(is_lossless_on(&M::OrMu, &x).unwrap());
        let y = Value::set([Value::int_orset([1, 2]), Value::int_orset([3])]);
        assert!(is_lossless_on(&M::Alpha, &y).unwrap());
        assert_eq!(preserve(&M::Alpha), M::Id);
        assert_eq!(preserve(&M::OrMu), M::Id);
    }

    #[test]
    fn preserve_of_composition_is_lossless() {
        // f = ormap(π2) ∘ or_rho2 : int × <int> → <int>
        let f = M::OrRho2.then(M::ormap(M::Proj2));
        let x = Value::pair(Value::Int(9), Value::int_orset([1, 2, 3]));
        assert!(is_lossless_on(&f, &x).unwrap());
    }

    #[test]
    fn preserve_of_map_without_orsets_is_lossless() {
        // f = map(plus) : {int × int} → {int}, element types or-free
        let f = M::map(M::Prim(Prim::Plus));
        let x = Value::set([
            Value::pair(Value::Int(1), Value::Int(2)),
            Value::pair(Value::Int(3), Value::Int(4)),
        ]);
        assert!(is_lossless_on(&f, &x).unwrap());
        // and the preconditions hold
        let input_ty = Type::set(Type::prod(Type::Int, Type::Int));
        let (_, violations) = lossless_preconditions(&f, &input_ty).unwrap();
        assert!(violations.is_empty());
    }

    #[test]
    fn preconditions_flag_equality_at_orset_types() {
        let f = M::Eq;
        let t = Type::prod(Type::orset(Type::Int), Type::orset(Type::Int));
        let (_, violations) = lossless_preconditions(&f, &t).unwrap();
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn preconditions_flag_union_that_can_collapse_orsets() {
        let f = M::Union;
        let t = Type::prod(
            Type::set(Type::orset(Type::Int)),
            Type::set(Type::orset(Type::Int)),
        );
        let (_, violations) = lossless_preconditions(&f, &t).unwrap();
        assert!(!violations.is_empty());
    }

    #[test]
    fn equality_at_orset_type_is_genuinely_not_lossless() {
        // The documented counterexample class: =_t at an or-set type is a
        // structural test, and normalization erases exactly the structure it
        // looks at.  <1,2> and <2,1> are structurally equal, but <<1,2>> and
        // <<1>,<2>> normalize to the same or-set while being structurally
        // different, so eq gives different answers before and after.
        let f = M::Eq;
        let x = Value::pair(
            Value::orset([Value::int_orset([1, 2])]),
            Value::orset([Value::int_orset([1]), Value::int_orset([2])]),
        );
        // structural equality on the original: false; after normalization
        // both components denote the same alternatives.
        let (left, right) = losslessness_sides(&f, &x).unwrap();
        assert_ne!(left, right);
    }

    #[test]
    fn or_rho2_is_an_example_where_the_analog_is_not_onto() {
        // Proposition 5.2's ρ₂ example, transposed to our combinators:
        // f = ρ₂ : <int> × {int} → {<int> × int} is outside Theorem 5.1 (the
        // pairing/ρ₂ restriction), and indeed the conceptual analog only
        // covers part of the right-hand side.
        let f = M::Rho2;
        let x = Value::pair(Value::int_orset([1, 2]), Value::int_set([3, 4]));
        assert!(is_conceptual_analog_on(&f, &x).unwrap());
        let (left, right) = losslessness_sides(&f, &x).unwrap();
        // not onto: the right-hand side has strictly more possibilities
        assert!(left.elements().unwrap().len() < right.elements().unwrap().len());
    }

    #[test]
    fn or_select_is_outside_the_theorem_and_the_checker_says_so() {
        // or_select(cheap) uses K<> and a cond whose result type has or-sets,
        // both excluded by Theorem 5.1 (and Proposition 5.2).  The syntactic
        // checker flags them, and indeed the blindly-applied construction is
        // not even a conceptual analog here — a negative test showing the
        // preconditions are not vacuous.
        let cheap = M::pair(M::Id, M::constant(Value::Int(100))).then(M::Prim(Prim::Leq));
        let f = derived::or_select(cheap);
        let x = Value::int_orset([50, 150, 99]);
        assert!(!is_conceptual_analog_on(&f, &x).unwrap());
        let (_, violations) = lossless_preconditions(&f, &Type::orset(Type::Int)).unwrap();
        assert!(violations.iter().any(|v| v.morphism.contains("K<>")));
        assert!(violations.iter().any(|v| v.reason.contains("cond")));
    }

    #[test]
    fn preserve_is_map_like_for_primitive_cases() {
        // preserve(f) = or_mu ∘ ormap(preserve(f) ∘ orη) — the "map-like"
        // property stated in Theorem 5.1, checked extensionally on samples.
        let f = M::Proj1;
        let pf = preserve(&f);
        let map_like = M::ormap(M::OrEta.then(pf.clone())).then(M::OrMu);
        let inputs = [
            Value::orset([
                Value::pair(Value::Int(1), Value::Int(2)),
                Value::pair(Value::Int(3), Value::Int(4)),
            ]),
            Value::orset([Value::pair(Value::Int(7), Value::Int(8))]),
        ];
        for x in &inputs {
            assert_eq!(eval(&pf, x).unwrap(), eval(&map_like, x).unwrap());
        }
    }

    #[test]
    fn or_free_projections_are_projection_chains_dropping_no_orset() {
        // int × (⟨int⟩ × ⟨int⟩)
        let row = Type::prod(
            Type::Int,
            Type::prod(Type::orset(Type::Int), Type::orset(Type::Int)),
        );
        assert!(is_or_free_projection(&M::Id, &row));
        assert!(is_or_free_projection(&M::Proj2, &row));
        assert!(is_or_free_projection(&M::Id.then(M::Proj2), &row));
        // the second `π₂` drops `⟨int⟩`; `π₁` drops the or-set pair
        assert!(!is_or_free_projection(&M::Proj2.then(M::Proj2), &row));
        assert!(!is_or_free_projection(&M::Proj1, &row));
        // not a projection chain
        assert!(!is_or_free_projection(&M::pair(M::Proj2, M::Proj1), &row));
    }
}
