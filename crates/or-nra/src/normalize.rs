//! Normalization: the passage from the structural to the conceptual level
//! (Section 4 of the paper).
//!
//! Two implementations are provided and cross-checked:
//!
//! * [`normalize_value`] — a direct recursive computation of the conceptual
//!   denotations of an object.  It is the production entry point (used by the
//!   `normalize` primitive of or-NRA⁺) and runs in time proportional to the
//!   size of its output.
//! * [`normalize_with_strategy`] — the paper's own construction: convert the
//!   object to its multiset form `o^d`, repeatedly apply the object-level
//!   functions associated with the type rewrite rules (`or_rho2`, `or_rho1`,
//!   `or_mu`, `alpha_d`) at redex positions chosen by a [`RewriteStrategy`],
//!   and finally convert multisets back to sets.  The Coherence Theorem
//!   (Theorem 4.2) says the result does not depend on the strategy; the
//!   [`crate::coherence`] module and experiment E5 verify this by running
//!   many strategies and comparing.

use or_object::alpha::{alpha_bag, ChoiceFunctions};
use or_object::types::{apply_rule_at, redexes, Redex, RewriteRule};
use or_object::{Type, Value};

use crate::error::EvalError;

// ---------------------------------------------------------------------------
// Direct normalization
// ---------------------------------------------------------------------------

/// The conceptual denotations of an object: the list of or-set-free objects
/// it can stand for, with multiplicities arising from distinct structural
/// positions (this is exactly the multiset semantics of Section 4).
///
/// * a base value denotes itself;
/// * a pair denotes every pairing of denotations of its components;
/// * a set `{x₁,…,xₙ}` denotes every set `{d₁,…,dₙ}` with `dᵢ` a denotation
///   of `xᵢ` (one choice per *position*, so distinct elements with common
///   denotations still contribute all combinations);
/// * an or-set denotes anything one of its elements denotes;
/// * an object containing an empty or-set denotes nothing (inconsistency).
pub fn denotations(v: &Value) -> Vec<Value> {
    match v {
        x if x.is_base() => vec![x.clone()],
        Value::Pair(a, b) => {
            let da = denotations(a);
            let db = denotations(b);
            let mut out = Vec::with_capacity(da.len() * db.len());
            for x in &da {
                for y in &db {
                    out.push(Value::pair(x.clone(), y.clone()));
                }
            }
            out
        }
        Value::Set(items) | Value::Bag(items) => {
            let per_item: Vec<Vec<Value>> = items.iter().map(denotations).collect();
            let mut out = Vec::new();
            for choice in ChoiceFunctions::new(&per_item) {
                out.push(Value::set(choice.into_iter().cloned()));
            }
            out
        }
        Value::OrSet(items) => items.iter().flat_map(denotations).collect(),
        _ => unreachable!("all shapes covered"),
    }
}

/// The number of conceptual denotations of `v` without materializing them
/// (counted with multiplicity, i.e. before the final duplicate removal),
/// saturating at `u128::MAX` — the closed form of
/// [`crate::lazy::LazyNormalizer::total`], in O(size of `v`).
pub fn denotation_count(v: &Value) -> u128 {
    match v {
        x if x.is_base() => 1,
        Value::Pair(a, b) => denotation_count(a).saturating_mul(denotation_count(b)),
        Value::Set(items) | Value::Bag(items) => items
            .iter()
            .map(denotation_count)
            .fold(1u128, |acc, n| acc.saturating_mul(n)),
        Value::OrSet(items) => items
            .iter()
            .map(denotation_count)
            .fold(0u128, u128::saturating_add),
        _ => unreachable!("all shapes covered"),
    }
}

/// `normalize : t → nf(t)` — the conceptual value of an object.
///
/// If the object's type does not involve or-sets the object is returned
/// unchanged (its normal form is itself); otherwise the result is the or-set
/// of its denotations.  Because the input's type is not passed explicitly,
/// the or-set-free case is detected structurally: an object is returned
/// unchanged iff it contains no or-set constructor.
pub fn normalize_value(v: &Value) -> Value {
    if !v.contains_orset() {
        return v.clone();
    }
    Value::orset(denotations(v))
}

/// Type-aware normalization: `normalize_{ty} : ty → nf(ty)`.
///
/// This differs from [`normalize_value`] only on objects whose *type*
/// mentions or-sets while the object itself happens to contain none (e.g.
/// the empty set at type `{<int>}`): the paper's `normalize` still produces
/// an or-set wrapper (`<{}>`) in that case, because `nf({<int>}) = <{int}>`.
/// Cross-checks against [`normalize_with_strategy`] use this variant.
pub fn normalize_value_typed(v: &Value, ty: &Type) -> Value {
    if !ty.contains_orset() {
        return v.clone();
    }
    Value::orset(denotations(v))
}

/// The `m(x)` measure of Section 6: the number of elements of
/// `normalize(or_eta(x))`, i.e. the number of conceptually possible values of
/// `x` (after duplicate elimination).
pub fn possibility_count(v: &Value) -> u64 {
    let mut d = denotations(v);
    d.sort();
    d.dedup();
    d.len() as u64
}

// ---------------------------------------------------------------------------
// Strategy-driven normalization (the paper's rewriting construction)
// ---------------------------------------------------------------------------

/// How to choose the next redex during strategy-driven normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteStrategy {
    /// Always pick the first redex in the deterministic outermost-first,
    /// left-to-right enumeration.
    Outermost,
    /// Always pick the last redex in that enumeration (innermost-biased).
    Innermost,
    /// Pick the redex whose path is deepest (ties broken by enumeration
    /// order).
    Deepest,
    /// Pseudo-random choice seeded by the given value (deterministic per
    /// seed, different seeds explore different reduction orders).
    Seeded(u64),
}

impl RewriteStrategy {
    /// A small portfolio of strategies used by the coherence checks.
    pub fn portfolio() -> Vec<RewriteStrategy> {
        vec![
            RewriteStrategy::Outermost,
            RewriteStrategy::Innermost,
            RewriteStrategy::Deepest,
            RewriteStrategy::Seeded(1),
            RewriteStrategy::Seeded(7),
        ]
    }

    fn choose(&self, step: u64, redexes: &[Redex]) -> usize {
        debug_assert!(!redexes.is_empty());
        match self {
            RewriteStrategy::Outermost => 0,
            RewriteStrategy::Innermost => redexes.len() - 1,
            RewriteStrategy::Deepest => redexes
                .iter()
                .enumerate()
                .max_by_key(|(i, r)| (r.path.len(), usize::MAX - i))
                .map(|(i, _)| i)
                .unwrap_or(0),
            RewriteStrategy::Seeded(seed) => {
                // splitmix64-style hash of (seed, step) for a deterministic
                // but order-scrambling choice
                let mut z = seed ^ (step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z % redexes.len() as u64) as usize
            }
        }
    }
}

/// A single step of the object-level rewrite system: the function associated
/// with `rule` applied at type-path `path` of a value of type `ty`.
///
/// Returns the rewritten value; the caller is responsible for updating the
/// type with [`apply_rule_at`].
pub fn apply_function_at(
    v: &Value,
    ty: &Type,
    path: &[u8],
    rule: RewriteRule,
) -> Result<Value, EvalError> {
    if path.is_empty() {
        return apply_function_root(v, rule);
    }
    let (step, rest) = (path[0], &path[1..]);
    match (ty, step) {
        (Type::Prod(t1, _), 0) => match v.as_pair() {
            Some((a, b)) => Ok(Value::pair(
                apply_function_at(a, t1, rest, rule)?,
                b.clone(),
            )),
            None => Err(EvalError::shape("dapp/pair", v)),
        },
        (Type::Prod(_, t2), 1) => match v.as_pair() {
            Some((a, b)) => Ok(Value::pair(
                a.clone(),
                apply_function_at(b, t2, rest, rule)?,
            )),
            None => Err(EvalError::shape("dapp/pair", v)),
        },
        (Type::Bag(t), 0) | (Type::Set(t), 0) => match v.elements() {
            Some(items) => {
                let mapped: Result<Vec<Value>, EvalError> = items
                    .iter()
                    .map(|x| apply_function_at(x, t, rest, rule))
                    .collect();
                // dmap preserves multiplicities: rebuild the same collection
                // kind as the input
                Ok(match v {
                    Value::Bag(_) => Value::bag(mapped?),
                    _ => Value::set(mapped?),
                })
            }
            None => Err(EvalError::shape("dapp/dmap", v)),
        },
        (Type::OrSet(t), 0) => match v {
            Value::OrSet(items) => {
                let mapped: Result<Vec<Value>, EvalError> = items
                    .iter()
                    .map(|x| apply_function_at(x, t, rest, rule))
                    .collect();
                Ok(Value::orset(mapped?))
            }
            _ => Err(EvalError::shape("dapp/ormap", v)),
        },
        _ => Err(EvalError::Shape {
            operator: "dapp".to_string(),
            value: format!("invalid path {path:?} into type {ty}"),
        }),
    }
}

fn apply_function_root(v: &Value, rule: RewriteRule) -> Result<Value, EvalError> {
    match rule {
        RewriteRule::PairRight => match v.as_pair() {
            // or_rho2 : t × <s> → <t × s>
            Some((a, Value::OrSet(items))) => Ok(Value::orset(
                items.iter().map(|b| Value::pair(a.clone(), b.clone())),
            )),
            _ => Err(EvalError::shape("or_rho2", v)),
        },
        RewriteRule::PairLeft => match v.as_pair() {
            // or_rho1 : <t> × s → <t × s>
            Some((Value::OrSet(items), b)) => Ok(Value::orset(
                items.iter().map(|a| Value::pair(a.clone(), b.clone())),
            )),
            _ => Err(EvalError::shape("or_rho1", v)),
        },
        RewriteRule::OrFlatten => match v {
            Value::OrSet(items) => {
                let mut out = Vec::new();
                for item in items {
                    match item {
                        Value::OrSet(inner) => out.extend(inner.iter().cloned()),
                        other => return Err(EvalError::shape("or_mu", other)),
                    }
                }
                Ok(Value::orset(out))
            }
            other => Err(EvalError::shape("or_mu", other)),
        },
        RewriteRule::SetAlpha => match v {
            Value::Bag(_) => alpha_bag(v).map_err(|e| EvalError::Primitive {
                primitive: "alpha_d".to_string(),
                message: e.to_string(),
            }),
            Value::Set(_) => or_object::alpha::alpha_set(v).map_err(|e| EvalError::Primitive {
                primitive: "alpha".to_string(),
                message: e.to_string(),
            }),
            other => Err(EvalError::shape("alpha", other)),
        },
    }
}

/// A record of one normalization run performed by
/// [`normalize_with_strategy`].
#[derive(Debug, Clone)]
pub struct NormalizationTrace {
    /// The redexes applied, in order.
    pub steps: Vec<Redex>,
    /// The final (normal-form) type of the multiset-typed intermediate.
    pub final_type: Type,
}

/// Normalize `v : ty` by the paper's construction: convert to multisets,
/// rewrite to the normal form of the type using `strategy` to choose redexes,
/// then remove duplicates.  Returns the normal form and the trace of applied
/// redexes.
pub fn normalize_with_strategy(
    v: &Value,
    ty: &Type,
    strategy: RewriteStrategy,
) -> Result<(Value, NormalizationTrace), EvalError> {
    if !v.has_type(ty) {
        return Err(EvalError::Type(crate::error::TypeError::Shape {
            message: format!("value {v} does not have declared type {ty}"),
        }));
    }
    let mut cur_v = v.to_bagged();
    let mut cur_t = ty.to_dup();
    let mut steps = Vec::new();
    let mut counter: u64 = 0;
    loop {
        let reds = redexes(&cur_t);
        if reds.is_empty() {
            break;
        }
        let idx = strategy.choose(counter, &reds);
        let r = reds[idx].clone();
        cur_v = apply_function_at(&cur_v, &cur_t, &r.path, r.rule)?;
        cur_t = apply_rule_at(&cur_t, &r.path, r.rule).ok_or_else(|| EvalError::Shape {
            operator: "type rewrite".to_string(),
            value: format!("rule {:?} inapplicable at {:?} in {cur_t}", r.rule, r.path),
        })?;
        steps.push(r);
        counter += 1;
    }
    Ok((
        cur_v.to_setted(),
        NormalizationTrace {
            steps,
            final_type: cur_t,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example of Section 4:
    /// `x = ([<1,2>, <3>], <1,2>) : {<int>} × <int>`.
    fn section4_example() -> (Value, Type) {
        let v = Value::pair(
            Value::set([Value::int_orset([1, 2]), Value::int_orset([3])]),
            Value::int_orset([1, 2]),
        );
        let t = Type::prod(Type::set(Type::orset(Type::Int)), Type::orset(Type::Int));
        (v, t)
    }

    fn section4_expected() -> Value {
        // <({1,3},1), ({1,3},2), ({2,3},1), ({2,3},2)>
        Value::orset([
            Value::pair(Value::int_set([1, 3]), Value::Int(1)),
            Value::pair(Value::int_set([1, 3]), Value::Int(2)),
            Value::pair(Value::int_set([2, 3]), Value::Int(1)),
            Value::pair(Value::int_set([2, 3]), Value::Int(2)),
        ])
    }

    #[test]
    fn direct_normalization_matches_the_section_4_example() {
        let (v, _) = section4_example();
        assert_eq!(normalize_value(&v), section4_expected());
    }

    #[test]
    fn strategy_normalization_matches_the_section_4_example() {
        let (v, t) = section4_example();
        for strategy in RewriteStrategy::portfolio() {
            let (out, trace) = normalize_with_strategy(&v, &t, strategy).unwrap();
            assert_eq!(out, section4_expected(), "strategy {strategy:?}");
            assert_eq!(trace.final_type, t.to_dup().normal_form());
            assert!(!trace.steps.is_empty());
        }
    }

    #[test]
    fn normalization_of_orset_free_objects_is_identity() {
        let v = Value::pair(Value::int_set([1, 2]), Value::Int(3));
        assert_eq!(normalize_value(&v), v);
    }

    #[test]
    fn empty_orset_collapses_everything() {
        // a set containing an inconsistent element denotes nothing
        let v = Value::set([Value::int_orset([1, 2]), Value::empty_orset()]);
        assert_eq!(normalize_value(&v), Value::empty_orset());
        let t = Type::set(Type::orset(Type::Int));
        let (out, _) = normalize_with_strategy(&v, &t, RewriteStrategy::Outermost).unwrap();
        assert_eq!(out, Value::empty_orset());
    }

    #[test]
    fn duplicates_from_distinct_positions_are_preserved() {
        // { <<1,2>>, <<1>,<2>> } : {<<int>>} — both elements normalize to the
        // or-set <1,2>, but as *positions* they are distinct, so the sets
        // {1}, {1,2}, {2} are all possible (the multiset subtlety of §4).
        let v = Value::set([
            Value::orset([Value::int_orset([1, 2])]),
            Value::orset([Value::int_orset([1]), Value::int_orset([2])]),
        ]);
        let expected = Value::orset([
            Value::int_set([1]),
            Value::int_set([1, 2]),
            Value::int_set([2]),
        ]);
        assert_eq!(normalize_value(&v), expected);
        let t = Type::set(Type::orset(Type::orset(Type::Int)));
        for strategy in RewriteStrategy::portfolio() {
            let (out, _) = normalize_with_strategy(&v, &t, strategy).unwrap();
            assert_eq!(out, expected, "strategy {strategy:?}");
        }
    }

    #[test]
    fn possibility_count_matches_normal_form_cardinality() {
        let (v, _) = section4_example();
        assert_eq!(possibility_count(&v), 4);
        let w = or_object::generate::Generator::tightness_witness(3);
        assert_eq!(possibility_count(&w), 27);
    }

    #[test]
    fn denotation_count_agrees_with_denotations_len() {
        let (v, _) = section4_example();
        assert_eq!(denotation_count(&v), denotations(&v).len() as u128);
        let w = Value::orset([Value::int_orset([1, 2]), Value::int_orset([2, 3])]);
        assert_eq!(denotation_count(&w), 4);
    }

    #[test]
    fn denotation_count_saturates() {
        // <| {<|0,1|>, …, <|258,259|>}, 1 |>: the set alone has 2^130
        // denotations, so the or-set's sum must saturate, not overflow.
        let wide = Value::set((0..130).map(|i| Value::int_orset([2 * i, 2 * i + 1])));
        let v = Value::orset([wide, Value::Int(1)]);
        assert_eq!(denotation_count(&v), u128::MAX);
        assert_eq!(
            denotation_count(&v),
            crate::lazy::LazyNormalizer::new(&v).total()
        );
    }

    #[test]
    fn strategy_normalization_rejects_ill_typed_input() {
        let v = Value::Int(1);
        let t = Type::orset(Type::Int);
        assert!(normalize_with_strategy(&v, &t, RewriteStrategy::Outermost).is_err());
    }

    #[test]
    fn normalization_is_idempotent_conceptually() {
        let (v, _) = section4_example();
        let once = normalize_value(&v);
        let twice = normalize_value(&once);
        assert_eq!(once, twice);
    }
}
