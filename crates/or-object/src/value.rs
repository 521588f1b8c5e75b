//! Complex objects: the values of or-NRA.
//!
//! An object is built from base constants by pairing, finite sets `{…}` and
//! or-sets `<…>`.  Following the paper, angle brackets denote or-sets and
//! curly braces denote ordinary sets.  A multiset ("bag") constructor exists
//! for the internal normalization process of Section 4 only.
//!
//! Values carry a canonical representation: set and or-set elements are kept
//! sorted and deduplicated, bags sorted but with duplicates retained.  This
//! makes structural equality coincide with the intended set equality.

use std::fmt;

use crate::types::Type;

/// A complex object.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// The unique element of type `unit`.
    Unit,
    /// A boolean constant.
    Bool(bool),
    /// An integer constant.
    Int(i64),
    /// A string constant.
    Str(String),
    /// The "no information" null of a flat domain (Codd-style null).  It is
    /// the bottom element under [`crate::base_order::BaseOrder::FlatWithNull`]
    /// and is only ever used with base types.
    Null,
    /// A pair.
    Pair(Box<Value>, Box<Value>),
    /// An ordinary finite set (sorted, deduplicated).
    Set(Vec<Value>),
    /// An or-set (sorted, deduplicated).
    OrSet(Vec<Value>),
    /// A multiset (sorted, duplicates preserved); internal to normalization.
    Bag(Vec<Value>),
}

/// Errors raised when an object does not fit an expected shape or type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueError {
    /// The value does not have the expected type.
    TypeMismatch {
        /// The type the value was expected to have.
        expected: Type,
        /// A rendering of the offending value.
        value: String,
    },
    /// A structural expectation failed (e.g. "expected a pair").
    Shape(String),
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::TypeMismatch { expected, value } => {
                write!(f, "value {value} does not have type {expected}")
            }
            ValueError::Shape(msg) => write!(f, "shape error: {msg}"),
        }
    }
}

impl std::error::Error for ValueError {}

impl Value {
    /// Build a string constant.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Build a pair.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(Box::new(a), Box::new(b))
    }

    /// Build a canonical (sorted, deduplicated) set.
    pub fn set(items: impl IntoIterator<Item = Value>) -> Value {
        let mut v: Vec<Value> = items.into_iter().collect();
        v.sort();
        v.dedup();
        Value::Set(v)
    }

    /// Build a canonical (sorted, deduplicated) or-set.
    pub fn orset(items: impl IntoIterator<Item = Value>) -> Value {
        let mut v: Vec<Value> = items.into_iter().collect();
        v.sort();
        v.dedup();
        Value::OrSet(v)
    }

    /// Build a canonical (sorted, duplicates kept) bag.
    pub fn bag(items: impl IntoIterator<Item = Value>) -> Value {
        let mut v: Vec<Value> = items.into_iter().collect();
        v.sort();
        Value::Bag(v)
    }

    /// The empty set.
    pub fn empty_set() -> Value {
        Value::Set(Vec::new())
    }

    /// The empty or-set (the paper's representation of inconsistency).
    pub fn empty_orset() -> Value {
        Value::OrSet(Vec::new())
    }

    /// Build a set of integers (convenience for tests and examples).
    pub fn int_set(items: impl IntoIterator<Item = i64>) -> Value {
        Value::set(items.into_iter().map(Value::Int))
    }

    /// Build an or-set of integers (convenience for tests and examples).
    pub fn int_orset(items: impl IntoIterator<Item = i64>) -> Value {
        Value::orset(items.into_iter().map(Value::Int))
    }

    /// Is this a base constant (including `Null`)?
    pub fn is_base(&self) -> bool {
        matches!(
            self,
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Str(_) | Value::Null
        )
    }

    /// Elements of a set, or-set or bag.  Returns `None` for other shapes.
    pub fn elements(&self) -> Option<&[Value]> {
        match self {
            Value::Set(v) | Value::OrSet(v) | Value::Bag(v) => Some(v),
            _ => None,
        }
    }

    /// The components of a pair, if the value is a pair.
    pub fn as_pair(&self) -> Option<(&Value, &Value)> {
        match self {
            Value::Pair(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// The boolean payload, if the value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if the value is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string payload, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The `size` measure of Section 6: the number of leaves of the tree
    /// representation.  `size` of an atomic object is 1; pairs, sets, or-sets
    /// and bags add the sizes of their components.  The empty set / or-set /
    /// bag contributes 0 leaves (its node has no leaf below it), matching the
    /// paper's definition `size {x1,…,xn} = size x1 + … + size xn`.
    pub fn size(&self) -> u64 {
        match self {
            v if v.is_base() => 1,
            Value::Pair(a, b) => a.size() + b.size(),
            Value::Set(v) | Value::OrSet(v) | Value::Bag(v) => v.iter().map(Value::size).sum(),
            _ => unreachable!("all shapes covered"),
        }
    }

    /// The number of nodes of the tree representation (used as a secondary
    /// complexity measure in benchmarks).
    pub fn node_count(&self) -> u64 {
        match self {
            v if v.is_base() => 1,
            Value::Pair(a, b) => 1 + a.node_count() + b.node_count(),
            Value::Set(v) | Value::OrSet(v) | Value::Bag(v) => {
                1 + v.iter().map(Value::node_count).sum::<u64>()
            }
            _ => unreachable!("all shapes covered"),
        }
    }

    /// Height of the tree representation.
    pub fn height(&self) -> usize {
        match self {
            v if v.is_base() => 1,
            Value::Pair(a, b) => 1 + a.height().max(b.height()),
            Value::Set(v) | Value::OrSet(v) | Value::Bag(v) => {
                1 + v.iter().map(Value::height).max().unwrap_or(0)
            }
            _ => unreachable!("all shapes covered"),
        }
    }

    /// Does the object contain an or-set constructor anywhere?
    pub fn contains_orset(&self) -> bool {
        match self {
            v if v.is_base() => false,
            Value::Pair(a, b) => a.contains_orset() || b.contains_orset(),
            Value::Set(v) | Value::Bag(v) => v.iter().any(Value::contains_orset),
            Value::OrSet(_) => true,
            _ => unreachable!("all shapes covered"),
        }
    }

    /// Does the object contain an *empty* or-set anywhere?  Such objects are
    /// conceptually inconsistent (Section 1) and are excluded from the
    /// losslessness theorem.
    pub fn contains_empty_orset(&self) -> bool {
        match self {
            v if v.is_base() => false,
            Value::Pair(a, b) => a.contains_empty_orset() || b.contains_empty_orset(),
            Value::Set(v) | Value::Bag(v) => v.iter().any(Value::contains_empty_orset),
            Value::OrSet(v) => v.is_empty() || v.iter().any(Value::contains_empty_orset),
            _ => unreachable!("all shapes covered"),
        }
    }

    /// Does the object contain an empty collection (set, or-set or bag)
    /// anywhere?  The cost bounds of Section 6 are stated for objects without
    /// empty collections ("empty sets and or-sets are excluded" in the proofs
    /// of Theorems 6.2/6.3), because an empty collection contributes zero to
    /// the size measure while still affecting the normal form.
    pub fn contains_empty_collection(&self) -> bool {
        match self {
            v if v.is_base() => false,
            Value::Pair(a, b) => a.contains_empty_collection() || b.contains_empty_collection(),
            Value::Set(v) | Value::OrSet(v) | Value::Bag(v) => {
                v.is_empty() || v.iter().any(Value::contains_empty_collection)
            }
            _ => unreachable!("all shapes covered"),
        }
    }

    /// Does the object contain a bag constructor anywhere?
    pub fn contains_bag(&self) -> bool {
        match self {
            v if v.is_base() => false,
            Value::Pair(a, b) => a.contains_bag() || b.contains_bag(),
            Value::Set(v) | Value::OrSet(v) => v.iter().any(Value::contains_bag),
            Value::Bag(_) => true,
            _ => unreachable!("all shapes covered"),
        }
    }

    /// The object `o^d` of Section 4: replace every set with a bag carrying
    /// single multiplicities.
    pub fn to_bagged(&self) -> Value {
        match self {
            v if v.is_base() => v.clone(),
            Value::Pair(a, b) => Value::pair(a.to_bagged(), b.to_bagged()),
            Value::Set(v) | Value::Bag(v) => Value::bag(v.iter().map(Value::to_bagged)),
            Value::OrSet(v) => Value::orset(v.iter().map(Value::to_bagged)),
            _ => unreachable!("all shapes covered"),
        }
    }

    /// The object `o^s` of Section 4: turn every bag into a set by removing
    /// duplicates.
    pub fn to_setted(&self) -> Value {
        match self {
            v if v.is_base() => v.clone(),
            Value::Pair(a, b) => Value::pair(a.to_setted(), b.to_setted()),
            Value::Set(v) => Value::set(v.iter().map(Value::to_setted)),
            Value::Bag(v) => Value::set(v.iter().map(Value::to_setted)),
            Value::OrSet(v) => Value::orset(v.iter().map(Value::to_setted)),
            _ => unreachable!("all shapes covered"),
        }
    }

    /// Check that the object is a well-typed inhabitant of `ty`.  `Null` is
    /// accepted at every base type (it is the flat-domain bottom).
    pub fn has_type(&self, ty: &Type) -> bool {
        match (self, ty) {
            (Value::Null, t) if t.is_base() => true,
            (Value::Unit, Type::Unit) => true,
            (Value::Bool(_), Type::Bool) => true,
            (Value::Int(_), Type::Int) => true,
            (Value::Str(_), Type::Str) => true,
            (Value::Pair(a, b), Type::Prod(ta, tb)) => a.has_type(ta) && b.has_type(tb),
            (Value::Set(v), Type::Set(t)) => v.iter().all(|x| x.has_type(t)),
            (Value::OrSet(v), Type::OrSet(t)) => v.iter().all(|x| x.has_type(t)),
            (Value::Bag(v), Type::Bag(t)) => v.iter().all(|x| x.has_type(t)),
            _ => false,
        }
    }

    /// Check the type and return a [`ValueError`] on mismatch.
    pub fn check_type(&self, ty: &Type) -> Result<(), ValueError> {
        if self.has_type(ty) {
            Ok(())
        } else {
            Err(ValueError::TypeMismatch {
                expected: ty.clone(),
                value: self.to_string(),
            })
        }
    }

    /// Infer a type for the object, if one exists.  A collection's element
    /// type is inferred from **all** its elements, position by position: an
    /// empty collection inside one element takes its element type from the
    /// same position in any sibling (`{(<>, <1>), (<2>, <>)}` is
    /// `{<int> × <int>}`), and only a position no element fills is given
    /// element type `unit`.  Heterogeneous collections fail.
    /// A null takes its base type from a sibling; a null no sibling types
    /// is an error.
    pub fn infer_type(&self) -> Result<Type, ValueError> {
        self.infer_partial()?
            .fill()
            .ok_or_else(|| ValueError::Shape("cannot infer the base type of a null".into()))
    }

    fn infer_partial(&self) -> Result<Partial, ValueError> {
        Ok(match self {
            Value::Unit => Partial::Base(Type::Unit),
            Value::Bool(_) => Partial::Base(Type::Bool),
            Value::Int(_) => Partial::Base(Type::Int),
            Value::Str(_) => Partial::Base(Type::Str),
            Value::Null => Partial::Null,
            Value::Pair(a, b) => {
                Partial::Prod(Box::new(a.infer_partial()?), Box::new(b.infer_partial()?))
            }
            Value::Set(v) | Value::OrSet(v) | Value::Bag(v) => {
                let mut elem = Partial::Hole;
                for item in v.iter() {
                    elem = elem.unify(item.infer_partial()?).ok_or_else(|| {
                        ValueError::Shape(format!(
                            "heterogeneous collection: {item} does not match the elements before it"
                        ))
                    })?;
                }
                let kind = match self {
                    Value::Set(_) => CollKind::Set,
                    Value::OrSet(_) => CollKind::OrSet,
                    _ => CollKind::Bag,
                };
                Partial::Coll(kind, Box::new(elem))
            }
        })
    }

    /// Iterate over every sub-object (including `self`), outermost first.
    pub fn subobjects(&self) -> Vec<&Value> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(v) = stack.pop() {
            out.push(v);
            match v {
                Value::Pair(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                Value::Set(items) | Value::OrSet(items) | Value::Bag(items) => {
                    stack.extend(items.iter());
                }
                _ => {}
            }
        }
        out
    }
}

/// A type inferred from part of a value (or of a collection literal):
/// `Hole` where only empty collections have been seen so far and `Null`
/// where only nulls (some base type), so a sibling can still fill them in.
#[derive(Debug)]
pub enum Partial {
    /// Any type: only empty collections reach this position.
    Hole,
    /// Some base type: only nulls reach this position.
    Null,
    /// A base type.
    Base(Type),
    /// A product.
    Prod(Box<Partial>, Box<Partial>),
    /// A set, or-set or bag.
    Coll(CollKind, Box<Partial>),
}

/// The collection type constructor of a [`Partial::Coll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// `{t}`.
    Set,
    /// `<t>`.
    OrSet,
    /// `[|t|]`.
    Bag,
}

impl Partial {
    /// `t` itself, with no holes.
    pub fn known(t: Type) -> Partial {
        let inner = |t: Box<Type>| Box::new(Partial::known(*t));
        match t {
            Type::Prod(a, b) => Partial::Prod(inner(a), inner(b)),
            Type::Set(t) => Partial::Coll(CollKind::Set, inner(t)),
            Type::OrSet(t) => Partial::Coll(CollKind::OrSet, inner(t)),
            Type::Bag(t) => Partial::Coll(CollKind::Bag, inner(t)),
            base => Partial::Base(base),
        }
    }

    /// The most specific type both agree with, if any.
    pub fn unify(self, other: Partial) -> Option<Partial> {
        Some(match (self, other) {
            (Partial::Hole, p) | (p, Partial::Hole) => p,
            (Partial::Null, Partial::Null) => Partial::Null,
            (Partial::Null, Partial::Base(t)) | (Partial::Base(t), Partial::Null) => {
                Partial::Base(t)
            }
            (Partial::Base(s), Partial::Base(t)) => (s == t).then_some(Partial::Base(s))?,
            (Partial::Prod(a, b), Partial::Prod(c, d)) => {
                Partial::Prod(Box::new(a.unify(*c)?), Box::new(b.unify(*d)?))
            }
            (Partial::Coll(k, a), Partial::Coll(l, b)) if k == l => {
                Partial::Coll(k, Box::new(a.unify(*b)?))
            }
            _ => return None,
        })
    }

    /// The type, with every remaining hole read as `unit`; `None` if a
    /// null was never given a base type.
    pub fn fill(self) -> Option<Type> {
        Some(match self {
            Partial::Hole => Type::Unit,
            Partial::Null => return None,
            Partial::Base(t) => t,
            Partial::Prod(a, b) => Type::prod(a.fill()?, b.fill()?),
            Partial::Coll(CollKind::Set, t) => Type::set(t.fill()?),
            Partial::Coll(CollKind::OrSet, t) => Type::orset(t.fill()?),
            Partial::Coll(CollKind::Bag, t) => Type::bag(t.fill()?),
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list(f: &mut fmt::Formatter<'_>, items: &[Value]) -> fmt::Result {
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            Ok(())
        }
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Null => write!(f, "null"),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
            Value::Set(v) => {
                write!(f, "{{")?;
                list(f, v)?;
                write!(f, "}}")
            }
            Value::OrSet(v) => {
                write!(f, "<")?;
                list(f, v)?;
                write!(f, ">")
            }
            Value::Bag(v) => {
                write!(f, "[|")?;
                list(f, v)?;
                write!(f, "|]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_are_canonical() {
        let a = Value::int_set([3, 1, 2, 2, 1]);
        let b = Value::int_set([1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.elements().unwrap().len(), 3);
    }

    #[test]
    fn orsets_are_canonical_but_bags_keep_duplicates() {
        let o = Value::orset([Value::Int(2), Value::Int(2), Value::Int(1)]);
        assert_eq!(o.elements().unwrap().len(), 2);
        let b = Value::bag([Value::Int(2), Value::Int(2), Value::Int(1)]);
        assert_eq!(b.elements().unwrap().len(), 3);
    }

    #[test]
    fn size_counts_leaves() {
        // x = [<b1,b2,b3>, <b4,b5,b6>] has size 6 (Theorem 6.2 witness shape)
        let x = Value::set([Value::int_orset([1, 2, 3]), Value::int_orset([4, 5, 6])]);
        assert_eq!(x.size(), 6);
        assert_eq!(Value::Int(7).size(), 1);
        assert_eq!(Value::pair(Value::Int(1), Value::Int(2)).size(), 2);
        assert_eq!(Value::empty_set().size(), 0);
    }

    #[test]
    fn type_checking_accepts_nulls_at_base_types() {
        let v = Value::pair(Value::Null, Value::Int(3));
        assert!(v.has_type(&Type::prod(Type::Str, Type::Int)));
        assert!(!v.has_type(&Type::prod(Type::set(Type::Str), Type::Int)));
    }

    #[test]
    fn infer_type_of_nested_object() {
        let v = Value::set([Value::int_orset([1, 2]), Value::int_orset([3])]);
        assert_eq!(v.infer_type().unwrap(), Type::set(Type::orset(Type::Int)));
    }

    #[test]
    fn infer_type_rejects_heterogeneous_collections() {
        let v = Value::set([Value::Int(1), Value::Bool(true)]);
        assert!(v.infer_type().is_err());
    }

    /// An empty collection takes its element type from the same position
    /// in any sibling, whichever element comes first; a position no
    /// element fills stays `unit`, and a real clash is still an error.
    #[test]
    fn infer_type_fills_empty_collections_from_siblings() {
        let row = |a: &[i64], b: &[i64]| {
            Value::pair(
                Value::int_orset(a.iter().copied()),
                Value::int_orset(b.iter().copied()),
            )
        };
        let ints = Type::set(Type::prod(Type::orset(Type::Int), Type::orset(Type::Int)));
        let v = Value::set([row(&[], &[1]), row(&[2], &[3, 4])]);
        assert_eq!(v.infer_type().unwrap(), ints);
        let v = Value::set([row(&[], &[1]), row(&[2], &[])]);
        assert_eq!(v.infer_type().unwrap(), ints);
        let v = Value::set([row(&[], &[1]), row(&[], &[])]);
        assert_eq!(
            v.infer_type().unwrap(),
            Type::set(Type::prod(Type::orset(Type::Unit), Type::orset(Type::Int)))
        );
        let clash = Value::set([
            Value::pair(Value::empty_orset(), Value::int_orset([1])),
            Value::pair(Value::orset([Value::Bool(true)]), Value::empty_set()),
        ]);
        assert!(clash.infer_type().is_err());
        let kinds = Value::set([Value::empty_set(), Value::int_orset([1])]);
        assert!(kinds.infer_type().is_err());
        // a null is typed by a sibling, never on its own
        let nulls = Value::set([Value::Null, Value::Int(3)]);
        assert_eq!(nulls.infer_type().unwrap(), Type::set(Type::Int));
        assert!(Value::set([Value::Null]).infer_type().is_err());
    }

    #[test]
    fn bagged_and_setted_round_trip() {
        let v = Value::set([Value::int_orset([1, 2]), Value::int_orset([2, 3])]);
        let d = v.to_bagged();
        assert!(d.contains_bag());
        assert_eq!(d.to_setted(), v);
    }

    #[test]
    fn empty_orset_detection() {
        let v = Value::set([Value::int_orset([1]), Value::empty_orset()]);
        assert!(v.contains_empty_orset());
        let w = Value::set([Value::int_orset([1])]);
        assert!(!w.contains_empty_orset());
    }

    #[test]
    fn display_uses_paper_notation() {
        let v = Value::pair(Value::int_set([1, 2]), Value::int_orset([3]));
        assert_eq!(v.to_string(), "({1, 2}, <3>)");
    }

    #[test]
    fn subobjects_includes_everything() {
        let v = Value::pair(Value::int_set([1, 2]), Value::Int(3));
        let subs = v.subobjects();
        assert_eq!(subs.len(), 5); // pair, set, 1, 2, 3
    }

    #[test]
    fn has_type_for_empty_collections() {
        assert!(Value::empty_set().has_type(&Type::set(Type::Int)));
        assert!(Value::empty_orset().has_type(&Type::orset(Type::prod(Type::Int, Type::Bool))));
    }
}
