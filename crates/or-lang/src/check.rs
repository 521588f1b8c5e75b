//! The OrQL type checker.
//!
//! OrQL is explicitly first-order and monomorphic: every expression has an
//! object type of or-NRA (`bool`, `int`, `string`, `unit`, products, sets,
//! or-sets), and the checker computes it in a single syntax-directed pass.
//! A collection literal's element type is unified from all its elements,
//! position by position, so an empty literal nested in one takes its
//! element type from its siblings (`{ (1, {2}), (2, {}) }`).  Operands that
//! must share a type — the two sides of `union`, `==` or an `if`, and a
//! `member` test's element and collection — are unified the same way
//! (`union({}, {1})`, `member(1, {})`).  A position that nothing fills gets
//! `unit` (`{}` alone is `{unit}`); other contexts that need a different
//! element type, such as a binding, must mention at least one element.

use std::fmt;

use or_object::value::{CollKind, Partial};
use or_object::Type;

use crate::ast::{BinOp, Builtin, Expr, Qualifier};

/// A type error in an OrQL expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// Description of the problem.
    pub message: String,
}

impl CheckError {
    fn new(message: impl Into<String>) -> CheckError {
        CheckError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.message)
    }
}

impl std::error::Error for CheckError {}

/// A typing environment: variables in scope with their types (innermost
/// binding last).
pub type TypeEnv = Vec<(String, Type)>;

fn lookup(env: &TypeEnv, name: &str) -> Option<Type> {
    env.iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, t)| t.clone())
}

/// Infer the type of an expression in the given environment.
pub fn infer_type(expr: &Expr, env: &TypeEnv) -> Result<Type, CheckError> {
    match expr {
        Expr::Unit => Ok(Type::Unit),
        Expr::Int(_) => Ok(Type::Int),
        Expr::Bool(_) => Ok(Type::Bool),
        Expr::Str(_) => Ok(Type::Str),
        Expr::Var(name) => {
            lookup(env, name).ok_or_else(|| CheckError::new(format!("unbound variable {name}")))
        }
        Expr::Pair(a, b) => Ok(Type::prod(infer_type(a, env)?, infer_type(b, env)?)),
        Expr::SetLit(items) => Ok(Type::set(collection_element_type(items, env)?)),
        Expr::OrSetLit(items) => Ok(Type::orset(collection_element_type(items, env)?)),
        Expr::SetComp { head, qualifiers } => {
            let inner_env = check_qualifiers(qualifiers, env, CollectionKind::Set)?;
            Ok(Type::set(infer_type(head, &inner_env)?))
        }
        Expr::OrSetComp { head, qualifiers } => {
            let inner_env = check_qualifiers(qualifiers, env, CollectionKind::OrSet)?;
            Ok(Type::orset(infer_type(head, &inner_env)?))
        }
        Expr::Let { name, value, body } => {
            let value_ty = infer_type(value, env)?;
            let mut inner = env.clone();
            inner.push((name.clone(), value_ty));
            infer_type(body, &inner)
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            expect(cond, env, &Type::Bool, "the condition of if")?;
            same_type(then_branch, else_branch, env, |t, e| {
                format!("branches of if have different types: {t} vs {e}")
            })
        }
        Expr::BinOp(op, a, b) => {
            let (operand, result, what) = match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul => {
                    (Type::Int, Type::Int, "arithmetic operand")
                }
                BinOp::Leq | BinOp::Lt | BinOp::Geq | BinOp::Gt => {
                    (Type::Int, Type::Bool, "comparison operand")
                }
                BinOp::And | BinOp::Or => (Type::Bool, Type::Bool, "boolean operand"),
                BinOp::Eq | BinOp::Neq => {
                    same_type(a, b, env, |ta, tb| {
                        format!("cannot compare values of different types {ta} and {tb}")
                    })?;
                    return Ok(Type::Bool);
                }
            };
            expect(a, env, &operand, what)?;
            expect(b, env, &operand, what)?;
            Ok(result)
        }
        Expr::Not(a) => {
            expect(a, env, &Type::Bool, "the operand of !")?;
            Ok(Type::Bool)
        }
        Expr::Call(builtin, args) => infer_call(*builtin, args, env),
    }
}

/// Check an expression against an expected type.
pub fn check_type(expr: &Expr, env: &TypeEnv, expected: &Type) -> Result<(), CheckError> {
    let actual = infer_type(expr, env)?;
    if &actual == expected {
        Ok(())
    } else {
        Err(CheckError::new(format!(
            "expected {expected}, found {actual} in {expr}"
        )))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum CollectionKind {
    Set,
    OrSet,
}

fn check_qualifiers(
    qualifiers: &[Qualifier],
    env: &TypeEnv,
    kind: CollectionKind,
) -> Result<TypeEnv, CheckError> {
    let mut inner = env.clone();
    for q in qualifiers {
        match q {
            Qualifier::Generator(name, source) => {
                let source_ty = infer_type(source, &inner)?;
                let elem = match (kind, &source_ty) {
                    (CollectionKind::Set, Type::Set(t)) => (**t).clone(),
                    (CollectionKind::OrSet, Type::OrSet(t)) => (**t).clone(),
                    (CollectionKind::Set, other) => {
                        return Err(CheckError::new(format!(
                            "a set comprehension generator must range over a set, found {other}"
                        )))
                    }
                    (CollectionKind::OrSet, other) => {
                        return Err(CheckError::new(format!(
                            "an or-set comprehension generator must range over an or-set, \
                             found {other}"
                        )))
                    }
                };
                inner.push((name.clone(), elem));
            }
            Qualifier::Guard(g) => {
                expect(g, &inner, &Type::Bool, "a comprehension guard")?;
            }
        }
    }
    Ok(inner)
}

/// The element type of a collection literal.  When every element has the
/// same type, that is it; otherwise the elements are unified position by
/// position ([`elements_type`]).  Equal types fill equal holes alike, so
/// the shortcut gives the same answer.
fn collection_element_type(items: &[Expr], env: &TypeEnv) -> Result<Type, CheckError> {
    let Some((first, rest)) = items.split_first() else {
        return Ok(Type::Unit);
    };
    let t = infer_type(first, env)?;
    for item in rest {
        if infer_type(item, env)? != t {
            let unified = elements_type(items, env)?;
            return Ok(unified.fill().expect("OrQL has no null literal"));
        }
    }
    Ok(t)
}

/// The elements' types unified, with a hole where only empty collection
/// literals say anything, so a sibling fills it in.
fn elements_type(items: &[Expr], env: &TypeEnv) -> Result<Partial, CheckError> {
    let mut elem = Partial::Hole;
    for item in items {
        elem = elem.unify(literal_type(item, env)?).ok_or_else(|| {
            CheckError::new(format!(
                "heterogeneous collection literal: {item} does not match the elements before it"
            ))
        })?;
    }
    Ok(elem)
}

/// The type of `expr`, with holes where only empty collection literals
/// inside it say anything.
fn literal_type(expr: &Expr, env: &TypeEnv) -> Result<Partial, CheckError> {
    let coll = |kind, items| Ok(Partial::Coll(kind, Box::new(elements_type(items, env)?)));
    match expr {
        Expr::Pair(a, b) => Ok(Partial::Prod(
            Box::new(literal_type(a, env)?),
            Box::new(literal_type(b, env)?),
        )),
        Expr::SetLit(items) => coll(CollKind::Set, items),
        Expr::OrSetLit(items) => coll(CollKind::OrSet, items),
        other => Ok(Partial::known(infer_type(other, env)?)),
    }
}

/// The type two operands' [`literal_type`]s agree on, if any: an empty
/// collection literal on either side takes its element type from the
/// other (`union({}, {1})`, `if c then {} else {1}`, `member(1, {})`).
fn agree(a: Partial, b: Partial) -> Option<Type> {
    Some(a.unify(b)?.fill().expect("OrQL has no null literal"))
}

/// The type operands `a` and `b` must share ([`agree`]); `clash` words
/// the error from their own types when they do not.
fn same_type(
    a: &Expr,
    b: &Expr,
    env: &TypeEnv,
    clash: impl FnOnce(Type, Type) -> String,
) -> Result<Type, CheckError> {
    match agree(literal_type(a, env)?, literal_type(b, env)?) {
        Some(t) => Ok(t),
        None => Err(CheckError::new(clash(
            infer_type(a, env)?,
            infer_type(b, env)?,
        ))),
    }
}

fn require(actual: &Type, expected: &Type, what: &str) -> Result<(), CheckError> {
    if actual == expected {
        Ok(())
    } else {
        Err(CheckError::new(format!(
            "{what} must have type {expected}, found {actual}"
        )))
    }
}

fn expect(expr: &Expr, env: &TypeEnv, expected: &Type, what: &str) -> Result<(), CheckError> {
    let actual = infer_type(expr, env)?;
    require(&actual, expected, what)
}

fn infer_call(builtin: Builtin, args: &[Expr], env: &TypeEnv) -> Result<Type, CheckError> {
    let arg = |i: usize| infer_type(&args[i], env);
    let set_elem = |t: &Type, what: &str| -> Result<Type, CheckError> {
        match t {
            Type::Set(inner) => Ok((**inner).clone()),
            other => Err(CheckError::new(format!(
                "{what} expects a set, found {other}"
            ))),
        }
    };
    let orset_elem = |t: &Type, what: &str| -> Result<Type, CheckError> {
        match t {
            Type::OrSet(inner) => Ok((**inner).clone()),
            other => Err(CheckError::new(format!(
                "{what} expects an or-set, found {other}"
            ))),
        }
    };
    match builtin {
        Builtin::Normalize => Ok(arg(0)?.normal_form()),
        Builtin::Alpha => {
            let elem = set_elem(&arg(0)?, "alpha")?;
            let inner = orset_elem(&elem, "alpha")?;
            Ok(Type::orset(Type::set(inner)))
        }
        Builtin::Flatten => {
            let elem = set_elem(&arg(0)?, "flatten")?;
            let inner = set_elem(&elem, "flatten")?;
            Ok(Type::set(inner))
        }
        Builtin::OrFlatten => {
            let elem = orset_elem(&arg(0)?, "orflatten")?;
            let inner = orset_elem(&elem, "orflatten")?;
            Ok(Type::orset(inner))
        }
        Builtin::Union | Builtin::Intersect | Builtin::Difference | Builtin::Subset => {
            let name = builtin.name();
            let t = same_type(&args[0], &args[1], env, |a, b| {
                format!("{name} expects two sets of the same type, found {a} and {b}")
            })?;
            set_elem(&t, name)?;
            Ok(if builtin == Builtin::Subset {
                Type::Bool
            } else {
                t
            })
        }
        Builtin::OrUnion => {
            let t = same_type(&args[0], &args[1], env, |a, b| {
                format!("orunion expects two or-sets of the same type, found {a} and {b}")
            })?;
            orset_elem(&t, "orunion")?;
            Ok(t)
        }
        Builtin::Member | Builtin::OrMember => {
            let (kind, coll) = match builtin {
                Builtin::Member => (CollKind::Set, "set"),
                _ => (CollKind::OrSet, "or-set"),
            };
            let singleton = Partial::Coll(kind, Box::new(literal_type(&args[0], env)?));
            if agree(singleton, literal_type(&args[1], env)?).is_none() {
                let s = arg(1)?;
                let elem = match kind {
                    CollKind::Set => set_elem(&s, "member")?,
                    _ => orset_elem(&s, "ormember")?,
                };
                return Err(CheckError::new(format!(
                    "{}: element type {} does not match {coll} element type {elem}",
                    builtin.name(),
                    arg(0)?
                )));
            }
            Ok(Type::Bool)
        }
        Builtin::Powerset => {
            let elem = set_elem(&arg(0)?, "powerset")?;
            Ok(Type::set(Type::set(elem)))
        }
        Builtin::ToSet => Ok(Type::set(orset_elem(&arg(0)?, "toset")?)),
        Builtin::ToOrSet => Ok(Type::orset(set_elem(&arg(0)?, "toorset")?)),
        Builtin::IsEmpty => {
            set_elem(&arg(0)?, "isempty")?;
            Ok(Type::Bool)
        }
        Builtin::OrIsEmpty => {
            orset_elem(&arg(0)?, "orisempty")?;
            Ok(Type::Bool)
        }
        Builtin::Fst => match arg(0)? {
            Type::Prod(a, _) => Ok(*a),
            other => Err(CheckError::new(format!(
                "fst expects a pair, found {other}"
            ))),
        },
        Builtin::Snd => match arg(0)? {
            Type::Prod(_, b) => Ok(*b),
            other => Err(CheckError::new(format!(
                "snd expects a pair, found {other}"
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn ty(src: &str, env: &TypeEnv) -> Result<Type, CheckError> {
        infer_type(&parse(src).unwrap(), env)
    }

    #[test]
    fn literals_and_operators() {
        let env = TypeEnv::new();
        assert_eq!(ty("1 + 2 * 3", &env).unwrap(), Type::Int);
        assert_eq!(ty("1 <= 2 && true", &env).unwrap(), Type::Bool);
        assert_eq!(
            ty("(1, \"a\")", &env).unwrap(),
            Type::prod(Type::Int, Type::Str)
        );
        assert_eq!(ty("{1, 2}", &env).unwrap(), Type::set(Type::Int));
        assert_eq!(ty("<|1, 2|>", &env).unwrap(), Type::orset(Type::Int));
        assert!(ty("1 + true", &env).is_err());
        assert!(ty("{1, true}", &env).is_err());
    }

    #[test]
    fn comprehensions_bind_variables() {
        let env = TypeEnv::new();
        assert_eq!(
            ty("{ x + 1 | x <- {1,2,3}, x <= 2 }", &env).unwrap(),
            Type::set(Type::Int)
        );
        assert_eq!(
            ty("<| (x, y) | x <- <|1,2|>, y <- <|true|> |>", &env).unwrap(),
            Type::orset(Type::prod(Type::Int, Type::Bool))
        );
        // a set generator inside an or-set comprehension is rejected
        assert!(ty("<| x | x <- {1,2} |>", &env).is_err());
        assert!(ty("{ x | x <- <|1,2|> }", &env).is_err());
    }

    #[test]
    fn normalize_produces_the_normal_form_type() {
        let env = vec![("db".to_string(), Type::set(Type::orset(Type::Int)))];
        assert_eq!(
            ty("normalize(db)", &env).unwrap(),
            Type::orset(Type::set(Type::Int))
        );
        assert_eq!(
            ty("<| x | x <- normalize(db), isempty(x) |>", &env).unwrap(),
            Type::orset(Type::set(Type::Int))
        );
    }

    #[test]
    fn builtins_are_checked() {
        let env = TypeEnv::new();
        assert_eq!(ty("union({1}, {2})", &env).unwrap(), Type::set(Type::Int));
        assert_eq!(ty("member(1, {1,2})", &env).unwrap(), Type::Bool);
        assert_eq!(
            ty("alpha({<|1,2|>, <|3|>})", &env).unwrap(),
            Type::orset(Type::set(Type::Int))
        );
        assert_eq!(ty("fst((1, true))", &env).unwrap(), Type::Int);
        assert!(ty("member(true, {1})", &env).is_err());
        assert!(ty("union({1}, <|2|>)", &env).is_err());
        assert!(ty("flatten({1})", &env).is_err());
    }

    #[test]
    fn let_if_and_scope() {
        let env = TypeEnv::new();
        assert_eq!(
            ty("let s = {1,2} in if member(1, s) then 1 else 0", &env).unwrap(),
            Type::Int
        );
        assert!(ty("if 1 then 2 else 3", &env).is_err());
        assert!(ty("if true then 2 else false", &env).is_err());
        assert!(ty("x + 1", &env).is_err());
    }

    #[test]
    fn empty_collections_default_to_unit_elements() {
        let env = TypeEnv::new();
        assert_eq!(ty("{}", &env).unwrap(), Type::set(Type::Unit));
        assert_eq!(ty("<| |>", &env).unwrap(), Type::orset(Type::Unit));
    }

    #[test]
    fn empty_collections_take_their_type_from_siblings() {
        let env = vec![("s".to_string(), Type::set(Type::Int))];
        let ints = || Type::set(Type::Int);
        assert_eq!(ty("{ {1, 2}, {} }", &env).unwrap(), Type::set(ints()));
        assert_eq!(ty("{ {}, {1, 2} }", &env).unwrap(), Type::set(ints()));
        assert_eq!(ty("{ {}, s }", &env).unwrap(), Type::set(ints()));
        assert_eq!(
            ty("{ (1, { <|1,2|> }), (2, {}) }", &env).unwrap(),
            Type::set(Type::prod(Type::Int, Type::set(Type::orset(Type::Int))))
        );
        let or_ints = || Type::orset(Type::Int);
        assert_eq!(
            ty("{ (<|2|>, <|3, 4|>), (<||>, <|1|>) }", &env).unwrap(),
            Type::set(Type::prod(or_ints(), or_ints()))
        );
        // holes filled from different siblings, and one nothing fills
        assert_eq!(
            ty("{ ({}, <||>), ({1}, <||>), ({}, <|{}|>) }", &env).unwrap(),
            Type::set(Type::prod(ints(), Type::orset(Type::set(Type::Unit))))
        );
        // a real clash is still an error, in either order
        for src in [
            "{ {unit}, {1} }",
            "{ {1}, {}, {unit} }",
            "{ {}, s, {true} }",
        ] {
            let e = ty(src, &env).unwrap_err();
            assert!(e.message.contains("heterogeneous"), "{src}: {e}");
        }
        assert!(ty("{ {}, 1 }", &env).is_err());
    }

    #[test]
    fn empty_operands_take_their_type_from_the_other_operand() {
        let env = vec![("s".to_string(), Type::set(Type::Int))];
        let ints = || Type::set(Type::Int);
        assert_eq!(ty("union({}, {1})", &env).unwrap(), ints());
        assert_eq!(ty("difference(s, {})", &env).unwrap(), ints());
        assert_eq!(ty("subset({}, s)", &env).unwrap(), Type::Bool);
        assert_eq!(
            ty("orunion(<| |>, <|1|>)", &env).unwrap(),
            Type::orset(Type::Int)
        );
        assert_eq!(ty("if true then {} else {1}", &env).unwrap(), ints());
        assert_eq!(
            ty("if true then ({1}, <| |>) else ({}, <|2|>)", &env).unwrap(),
            Type::prod(ints(), Type::orset(Type::Int))
        );
        assert_eq!(ty("member(1, {})", &env).unwrap(), Type::Bool);
        assert_eq!(ty("ormember({}, <|{1}|>)", &env).unwrap(), Type::Bool);
        assert_eq!(ty("{} == s", &env).unwrap(), Type::Bool);
        // a real clash is still an error
        let e = ty("union({unit}, {1})", &env).unwrap_err();
        assert!(e.message.contains("same type"), "{e}");
        assert_eq!(ty("member(true, {})", &env).unwrap(), Type::Bool);
        let e = ty("member(1, {true})", &env).unwrap_err();
        assert!(e.message.contains("element type int"), "{e}");
        assert!(ty("if true then {true} else s", &env).is_err());
        assert!(ty("{unit} != {1}", &env).is_err());
        assert!(ty("member(1, 2)", &env)
            .unwrap_err()
            .message
            .contains("expects a set"));
    }
}
