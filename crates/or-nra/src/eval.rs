//! The big-step evaluator for or-NRA⁺ morphisms.
//!
//! Two semantics are supported, mirroring Section 3:
//!
//! * the plain finite-set semantics (the default), and
//! * the antichain semantics, in which every set- or or-set-producing step is
//!   followed by `max` / `min` with respect to the structural order over a
//!   chosen base order.
//!
//! The evaluator is defensive: shape mismatches produce [`EvalError`]s rather
//! than panics, and a configurable step budget guards against accidentally
//! exponential intermediate results in interactive use.

use or_object::alpha::{alpha_antichain, alpha_set};
use or_object::antichain::{orset_min, set_max};
use or_object::prelude::*;

use crate::error::EvalError;
use crate::morphism::{Morphism, Prim};
use crate::normalize;

/// Evaluation configuration.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// When `Some(base)`, use the antichain semantics over the given base
    /// order; when `None`, use the plain set semantics.
    pub antichain: Option<BaseOrder>,
    /// Maximum number of morphism applications before aborting with
    /// [`EvalError::ResourceLimit`].  `u64::MAX` disables the check.
    pub max_steps: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            antichain: None,
            max_steps: u64::MAX,
        }
    }
}

impl EvalConfig {
    /// Plain set semantics, unlimited steps.
    pub fn plain() -> Self {
        EvalConfig::default()
    }

    /// Antichain semantics over the given base order.
    pub fn antichain(base: BaseOrder) -> Self {
        EvalConfig {
            antichain: Some(base),
            max_steps: u64::MAX,
        }
    }

    /// Limit the number of evaluation steps.
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = steps;
        self
    }
}

/// The evaluator.  Create one per query (it carries the step counter).
#[derive(Debug)]
pub struct Evaluator {
    config: EvalConfig,
    steps: u64,
}

impl Evaluator {
    /// Create an evaluator with the given configuration.
    pub fn new(config: EvalConfig) -> Self {
        Evaluator { config, steps: 0 }
    }

    /// Number of morphism applications performed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Apply a morphism to a value.
    pub fn eval(&mut self, m: &Morphism, v: &Value) -> Result<Value, EvalError> {
        self.steps += 1;
        if self.steps > self.config.max_steps {
            return Err(EvalError::ResourceLimit {
                limit: format!("max_steps = {}", self.config.max_steps),
            });
        }
        match m {
            Morphism::Id => Ok(v.clone()),
            Morphism::Compose(f, g) => {
                let mid = self.eval(g, v)?;
                self.eval(f, &mid)
            }
            Morphism::Proj1 => match v.as_pair() {
                Some((a, _)) => Ok(a.clone()),
                None => Err(EvalError::shape("pi1", v)),
            },
            Morphism::Proj2 => match v.as_pair() {
                Some((_, b)) => Ok(b.clone()),
                None => Err(EvalError::shape("pi2", v)),
            },
            Morphism::PairWith(f, g) => {
                let a = self.eval(f, v)?;
                let b = self.eval(g, v)?;
                Ok(Value::pair(a, b))
            }
            Morphism::Bang => Ok(Value::Unit),
            Morphism::Const(c) => Ok(c.clone()),
            Morphism::Eq => match v.as_pair() {
                Some((a, b)) => Ok(Value::Bool(a == b)),
                None => Err(EvalError::shape("eq", v)),
            },
            Morphism::Cond(p, f, g) => {
                let test = self.eval(p, v)?;
                match test.as_bool() {
                    Some(true) => self.eval(f, v),
                    Some(false) => self.eval(g, v),
                    None => Err(EvalError::NonBooleanCondition {
                        value: test.to_string(),
                    }),
                }
            }
            Morphism::Prim(p) => self.eval_prim(*p, v),

            Morphism::Eta => Ok(self.mk_set(vec![v.clone()])),
            Morphism::Mu => match v {
                Value::Set(items) => {
                    let mut out = Vec::new();
                    for item in items {
                        match item {
                            Value::Set(inner) => out.extend(inner.iter().cloned()),
                            other => return Err(EvalError::shape("mu", other)),
                        }
                    }
                    Ok(self.mk_set(out))
                }
                other => Err(EvalError::shape("mu", other)),
            },
            Morphism::Map(f) => match v {
                Value::Set(items) => {
                    let mapped: Result<Vec<Value>, EvalError> =
                        items.iter().map(|x| self.eval(f, x)).collect();
                    Ok(self.mk_set(mapped?))
                }
                other => Err(EvalError::shape("map", other)),
            },
            Morphism::Rho2 => match v.as_pair() {
                Some((a, Value::Set(items))) => Ok(self.mk_set(
                    items
                        .iter()
                        .map(|b| Value::pair(a.clone(), b.clone()))
                        .collect(),
                )),
                _ => Err(EvalError::shape("rho2", v)),
            },
            Morphism::Union => match v.as_pair() {
                Some((Value::Set(a), Value::Set(b))) => {
                    let mut out = a.clone();
                    out.extend(b.iter().cloned());
                    Ok(self.mk_set(out))
                }
                _ => Err(EvalError::shape("union", v)),
            },
            Morphism::KEmptySet => Ok(Value::empty_set()),

            Morphism::OrEta => Ok(self.mk_orset(vec![v.clone()])),
            Morphism::OrMu => match v {
                Value::OrSet(items) => {
                    let mut out = Vec::new();
                    for item in items {
                        match item {
                            Value::OrSet(inner) => out.extend(inner.iter().cloned()),
                            other => return Err(EvalError::shape("or_mu", other)),
                        }
                    }
                    Ok(self.mk_orset(out))
                }
                other => Err(EvalError::shape("or_mu", other)),
            },
            Morphism::OrMap(f) => match v {
                Value::OrSet(items) => {
                    let mapped: Result<Vec<Value>, EvalError> =
                        items.iter().map(|x| self.eval(f, x)).collect();
                    Ok(self.mk_orset(mapped?))
                }
                other => Err(EvalError::shape("ormap", other)),
            },
            Morphism::OrRho2 => match v.as_pair() {
                Some((a, Value::OrSet(items))) => Ok(self.mk_orset(
                    items
                        .iter()
                        .map(|b| Value::pair(a.clone(), b.clone()))
                        .collect(),
                )),
                _ => Err(EvalError::shape("or_rho2", v)),
            },
            Morphism::OrUnion => match v.as_pair() {
                Some((Value::OrSet(a), Value::OrSet(b))) => {
                    let mut out = a.clone();
                    out.extend(b.iter().cloned());
                    Ok(self.mk_orset(out))
                }
                _ => Err(EvalError::shape("or_union", v)),
            },
            Morphism::KEmptyOrSet => Ok(Value::empty_orset()),

            Morphism::Alpha => match self.config.antichain {
                None => alpha_set(v).map_err(|e| EvalError::Primitive {
                    primitive: "alpha".to_string(),
                    message: e.to_string(),
                }),
                Some(base) => alpha_antichain(base, v).map_err(|e| EvalError::Primitive {
                    primitive: "alpha".to_string(),
                    message: e.to_string(),
                }),
            },
            Morphism::OrToSet => match v {
                Value::OrSet(items) => Ok(self.mk_set(items.clone())),
                other => Err(EvalError::shape("ortoset", other)),
            },
            Morphism::SetToOr => match v {
                Value::Set(items) => Ok(self.mk_orset(items.clone())),
                other => Err(EvalError::shape("settoor", other)),
            },
            Morphism::Powerset => match v {
                Value::Set(items) => {
                    if items.len() > 24 {
                        return Err(EvalError::ResourceLimit {
                            limit: format!("powerset of a {}-element set", items.len()),
                        });
                    }
                    let n = items.len();
                    let mut out = Vec::with_capacity(1 << n);
                    for mask in 0u32..(1u32 << n) {
                        let subset: Vec<Value> = items
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| mask & (1 << i) != 0)
                            .map(|(_, x)| x.clone())
                            .collect();
                        out.push(Value::set(subset));
                    }
                    Ok(self.mk_set(out))
                }
                other => Err(EvalError::shape("powerset", other)),
            },

            Morphism::Normalize => Ok(normalize::normalize_value(v)),
        }
    }

    fn eval_prim(&mut self, p: Prim, v: &Value) -> Result<Value, EvalError> {
        let int_pair = |v: &Value| -> Option<(i64, i64)> {
            let (a, b) = v.as_pair()?;
            Some((a.as_int()?, b.as_int()?))
        };
        let bool_pair = |v: &Value| -> Option<(bool, bool)> {
            let (a, b) = v.as_pair()?;
            Some((a.as_bool()?, b.as_bool()?))
        };
        let err = |p: Prim, v: &Value| EvalError::Primitive {
            primitive: p.name().to_string(),
            message: format!("inapplicable to {v}"),
        };
        match p {
            Prim::Plus | Prim::Minus | Prim::Times => int_pair(v)
                .and_then(|(a, b)| p.int_op(a, b))
                .map(Value::Int)
                .ok_or_else(|| err(p, v)),
            Prim::Leq => int_pair(v)
                .map(|(a, b)| Value::Bool(a <= b))
                .ok_or_else(|| err(p, v)),
            Prim::Lt => int_pair(v)
                .map(|(a, b)| Value::Bool(a < b))
                .ok_or_else(|| err(p, v)),
            Prim::Not => v
                .as_bool()
                .map(|b| Value::Bool(!b))
                .ok_or_else(|| err(p, v)),
            Prim::And => bool_pair(v)
                .map(|(a, b)| Value::Bool(a && b))
                .ok_or_else(|| err(p, v)),
            Prim::Or => bool_pair(v)
                .map(|(a, b)| Value::Bool(a || b))
                .ok_or_else(|| err(p, v)),
            Prim::ValueLeq => match v.as_pair() {
                Some((a, b)) => Ok(Value::Bool(a <= b)),
                None => Err(err(p, v)),
            },
        }
    }

    fn mk_set(&self, items: Vec<Value>) -> Value {
        match self.config.antichain {
            None => Value::set(items),
            Some(base) => Value::set(set_max(base, &items)),
        }
    }

    fn mk_orset(&self, items: Vec<Value>) -> Value {
        match self.config.antichain {
            None => Value::orset(items),
            Some(base) => Value::orset(orset_min(base, &items)),
        }
    }
}

/// Evaluate a morphism on a value with the plain set semantics.
pub fn eval(m: &Morphism, v: &Value) -> Result<Value, EvalError> {
    Evaluator::new(EvalConfig::plain()).eval(m, v)
}

/// Evaluate a morphism on a value with the antichain semantics.
pub fn eval_antichain(base: BaseOrder, m: &Morphism, v: &Value) -> Result<Value, EvalError> {
    Evaluator::new(EvalConfig::antichain(base)).eval(m, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morphism::Morphism as M;

    #[test]
    fn or_rho2_paper_example() {
        // or_rho2 (1, <2,3>) = <(1,2), (1,3)>
        let input = Value::pair(Value::Int(1), Value::int_orset([2, 3]));
        let out = eval(&M::OrRho2, &input).unwrap();
        assert_eq!(
            out,
            Value::orset([
                Value::pair(Value::Int(1), Value::Int(2)),
                Value::pair(Value::Int(1), Value::Int(3)),
            ])
        );
    }

    #[test]
    fn or_mu_paper_example() {
        // or_mu <<1,2,3>, <2,4>> = <1,2,3,4>
        let input = Value::orset([Value::int_orset([1, 2, 3]), Value::int_orset([2, 4])]);
        assert_eq!(
            eval(&M::OrMu, &input).unwrap(),
            Value::int_orset([1, 2, 3, 4])
        );
    }

    #[test]
    fn cheap_design_query_from_section_2() {
        // or_mu ∘ ormap(cond(ischeap, or_eta, K<> ∘ !)) ∘ normalize
        let ischeap = M::pair(M::Id, M::constant(Value::Int(100))).then(M::Prim(Prim::Leq));
        let query = M::Normalize
            .then(M::ormap(M::cond(
                ischeap,
                M::OrEta,
                M::KEmptyOrSet.after_bang(),
            )))
            .then(M::OrMu);
        // the database: a design whose cost is either 50, 150 or 99
        let db = Value::int_orset([50, 150, 99]);
        let out = eval(&query, &db).unwrap();
        assert_eq!(out, Value::int_orset([50, 99]));
    }

    #[test]
    fn map_and_mu_work_on_sets() {
        let double = M::pair(M::Id, M::Id).then(M::Prim(Prim::Plus));
        let m = M::map(double);
        let input = Value::int_set([1, 2, 3]);
        assert_eq!(eval(&m, &input).unwrap(), Value::int_set([2, 4, 6]));
    }

    #[test]
    fn eq_is_structural_equality() {
        let v = Value::pair(Value::int_orset([1, 2]), Value::int_orset([2, 1]));
        assert_eq!(eval(&M::Eq, &v).unwrap(), Value::Bool(true));
    }

    #[test]
    fn shape_errors_are_reported() {
        assert!(eval(&M::Proj1, &Value::Int(3)).is_err());
        assert!(eval(&M::Mu, &Value::int_set([1])).is_err());
        assert!(eval(&M::OrMap(Box::new(M::Id)), &Value::int_set([1])).is_err());
    }

    #[test]
    fn step_budget_is_enforced() {
        let mut ev = Evaluator::new(EvalConfig::plain().with_max_steps(3));
        let m = M::map(M::map(M::Id));
        let input = Value::set([Value::int_set([1, 2, 3])]);
        assert!(matches!(
            ev.eval(&m, &input),
            Err(EvalError::ResourceLimit { .. })
        ));
    }

    #[test]
    fn powerset_baseline() {
        let out = eval(&M::Powerset, &Value::int_set([1, 2])).unwrap();
        assert_eq!(
            out,
            Value::set([
                Value::empty_set(),
                Value::int_set([1]),
                Value::int_set([2]),
                Value::int_set([1, 2]),
            ])
        );
    }

    #[test]
    fn antichain_semantics_prunes_results() {
        // union of {(null, 515)} and {(Joe, 515)} under the flat order keeps
        // only the maximal record.
        let a = Value::set([Value::pair(Value::Null, Value::Int(515))]);
        let b = Value::set([Value::pair(Value::str("Joe"), Value::Int(515))]);
        let input = Value::pair(a, b);
        let plain = eval(&M::Union, &input).unwrap();
        assert_eq!(plain.elements().unwrap().len(), 2);
        let anti = eval_antichain(BaseOrder::FlatWithNull, &M::Union, &input).unwrap();
        assert_eq!(
            anti,
            Value::set([Value::pair(Value::str("Joe"), Value::Int(515))])
        );
    }

    #[test]
    fn ortoset_and_settoor_convert() {
        assert_eq!(
            eval(&M::OrToSet, &Value::int_orset([1, 2])).unwrap(),
            Value::int_set([1, 2])
        );
        assert_eq!(
            eval(&M::SetToOr, &Value::int_set([1, 2])).unwrap(),
            Value::int_orset([1, 2])
        );
    }

    #[test]
    fn primitives_compute() {
        let p = Value::pair(Value::Int(3), Value::Int(4));
        assert_eq!(eval(&M::Prim(Prim::Plus), &p).unwrap(), Value::Int(7));
        assert_eq!(eval(&M::Prim(Prim::Leq), &p).unwrap(), Value::Bool(true));
        assert_eq!(
            eval(&M::Prim(Prim::Not), &Value::Bool(false)).unwrap(),
            Value::Bool(true)
        );
        assert!(eval(&M::Prim(Prim::Plus), &Value::Bool(true)).is_err());
    }
}
